// Command benchmark is the repository's benchmark: four workloads
// driven against real octopus server binaries over loopback HTTP, with
// named end-to-end metrics, a traced run for per-layer metrics, and a
// comparison tool. See README.md.
//
//	benchmark run   [-workload NAME] [-seed N] [-seconds S] [-out DIR]
//	benchmark trace [-workload NAME] [-seed N] [-seconds S] [-out DIR]
//	benchmark check A.json B.json
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   (builder contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark run|trace|check ... (see benchmark/README.md)")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "trace":
		err = cmdRun(os.Args[2:], true)
	case "check":
		err = cmdCheck(os.Args[2:])
	default:
		err = cmdContract(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the flags every measuring command takes.
type options struct {
	workload string
	seed     uint64
	seconds  int
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload name (run, trace: default all four, one after another)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the request lists and the stream's replay order")
	fs.IntVar(&o.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
}

// measure runs the workloads, measured or traced, inside one env that is
// torn down on every way out — return, error or panic — and prints each
// result as it arrives.
func measure(o options, out string, workloads []string, trace bool) (m *manifest, results []*result, err error) {
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	if m, err = readManifest(root); err != nil {
		return nil, nil, err
	}
	if o.seconds == 0 {
		o.seconds = m.RunSeconds
	}
	e, err := newEnv(root, out)
	if err != nil {
		return nil, nil, err
	}
	defer e.close() // also runs while a panic unwinds
	// The harness shares two cores with the servers it measures and keeps
	// the base system (~100 MB) as the comparison reference: collect
	// rarely, so that marking that heap does not steal server CPU.
	debug.SetGCPercent(400)
	for _, w := range workloads {
		run := e.runWorkload
		if trace {
			run = e.traceWorkload
		}
		res, err := run(w, o.seed, o.seconds)
		if err != nil {
			return nil, nil, err
		}
		res.print()
		results = append(results, res)
	}
	return m, results, nil
}

// cmdRun is `run` and `trace`: every workload (or the one named), one
// line per metric, and the same as JSON under -out. It fails when any
// check fails.
func cmdRun(args []string, trace bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var o options
	o.register(fs)
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for results, span files and server logs (relative paths are taken from the repository root)")
	_ = fs.Parse(args)
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if !filepath.IsAbs(*out) {
		*out = filepath.Join(root, *out)
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	kind := "run"
	if trace {
		kind = "trace"
	}
	_, results, err := measure(o, *out, names, trace)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*out, fmt.Sprintf("%s_seed%d.json", kind, o.seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: a correctness check failed (see CHECK FAILED lines and the server logs beside %s)", res.Workload, path)
		}
	}
	return nil
}

// cmdContract is the builder contract's entry point: one workload, and
// as the last line of standard output one JSON object.
func cmdContract(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var o options
	o.register(fs)
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	_ = fs.Parse(args)
	m, results, err := measure(o, filepath.Join(".bench_build", "out"), []string{o.workload}, *trace == 1)
	if err != nil {
		return err
	}
	line, err := results[0].contractLine(m)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}
