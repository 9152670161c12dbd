package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything a harness process leaves behind: the server
// binary it built, the child processes it started and its scratch
// directory. close kills and reaps every child and removes the scratch
// directory; it runs on normal exit, on SIGINT/SIGTERM and on panic.
type env struct {
	root   string // repository root
	bin    string // the built octopus binary
	out    string // results, span files and kept server stderr
	tmp    string // scratch: snapshots, WAL directories
	mu     sync.Mutex
	procs  []*proc
	closed bool
}

// repoRoot finds the checkout: $OCTOPUS_BENCH_ROOT (set by bench.sh),
// else the nearest parent of the working directory whose go.mod
// declares module octopus.
func repoRoot() (string, error) {
	if r := os.Getenv("OCTOPUS_BENCH_ROOT"); r != "" {
		return r, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module octopus\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the octopus repository (no go.mod with module octopus above the working directory)")
		}
		dir = parent
	}
}

// newEnv builds ./cmd/octopus once and creates the scratch directory;
// out is taken relative to the repository root unless absolute.
func newEnv(root, out string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin", "octopus"), out: out}
	if !filepath.IsAbs(out) {
		e.out = filepath.Join(root, out)
	}
	for _, d := range []string{filepath.Dir(e.bin), e.out, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/octopus")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ./cmd/octopus: %v\n%s", err, b)
	}
	var err error
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	return e, nil
}

func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs, e.closed = nil, true
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.tmp)
}

// proc is one running octopus server.
type proc struct {
	name string
	args []string
	addr string
	url  string
	log  string // stderr file under env.out
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches `octopus serve <args>` on a free loopback port.
func (e *env) start(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return e.spawn(name, addr, args)
}

// restart launches the same command line on the same address — the
// crash drill's second life (a coordinator finds its shards where they
// were).
func (e *env) restart(p *proc) (*proc, error) { return e.spawn(p.name, p.addr, p.args) }

// spawn runs `octopus serve <args> -addr <addr>` with its stderr kept
// under the output directory, and waits until /api/status answers 200.
func (e *env) spawn(name, addr string, args []string) (*proc, error) {
	p := &proc{name: name, args: args, addr: addr, url: "http://" + addr,
		log: filepath.Join(e.out, name+".stderr.log"), done: make(chan struct{})}
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	p.cmd = exec.Command(e.bin, append(append([]string{"serve"}, args...), "-addr", addr)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// A harness that dies without running close must not leak servers.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("harness is shutting down")
	}
	if err := p.cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant: servers only ever end by kill
		close(p.done)
	}()
	if err := p.waitReady(60 * time.Second); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", name, err, tail(p.log, 15))
	}
	return p, nil
}

func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("server exited before becoming ready")
		default:
		}
		resp, err := hc.Get(p.url + "/api/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond) // a mapped snapshot is up in ~40 ms

	}
	return fmt.Errorf("not ready after %s", timeout)
}

// kill sends SIGKILL and waits until the process has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// peakRSS reads the process's high-water resident set (VmHWM) in MiB.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tail returns the last n lines of a file, for failure reports.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
