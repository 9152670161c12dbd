package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one measured value as the builder contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run. Metrics holds everything measured;
// which of them are gated is BENCHMARK.json's decision, not the
// harness's.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Correct  bool              `json:"correct"`
	Phases   []*phase          `json:"phases"`
	Checks   []string          `json:"failed_checks,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

func newResult(workload string, seed uint64, seconds int, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// failf records a failed correctness check.
func (r *result) failf(format string, a ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, a...))
}

// totals sums the failure accounting over every phase.
func (r *result) totals() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// finish settles the verdict: correct means every check passed and no
// request of any phase failed.
func (r *result) finish() {
	attempted, failed := r.totals()
	r.Correct = len(r.Checks) == 0 && failed == 0 && attempted > 0
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	r.set("fail_ratio", ratio, "ratio")
}

// print writes one `workload metric value unit` line per metric plus
// the per-phase accounting.
func (r *result) print() {
	for _, p := range r.Phases {
		fmt.Printf("%s phase %q attempted=%d ok=%d failed=%d", r.Workload, p.Name, p.Attempted, p.OK, p.Failed)
		if p.FirstErr != "" {
			fmt.Printf(" first_error=%q", p.FirstErr)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, c := range r.Checks {
		fmt.Printf("%s CHECK FAILED: %s\n", r.Workload, c)
	}
}

// manifest is BENCHMARK.json: the workloads and which metrics are
// gated, with their bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// contractLine renders the builder contract's last line: exactly the
// manifest's end-to-end metrics for a measured run, exactly its
// per-layer metrics for a traced one.
func (r *result) contractLine(m *manifest) (string, error) {
	defs := m.EndToEnd
	if r.Trace {
		defs = m.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Correct, Metrics: map[string]metric{}}
	out.Attempted, out.Failed = r.totals()
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which workload %s did not measure", d.Name, r.Workload)
		}
		out.Metrics[d.Name] = v
	}
	b, err := json.Marshal(out)
	return string(b), err
}
