// Command benchmark is the repository's served-PSI benchmark: it
// builds and starts a real psi-serve, drives it closed-loop over
// loopback HTTP with a fixed request sequence per (workload, seed),
// checks the answers, and prints every metric by name and unit. With
// --trace 1 it instead runs the same generated queries through each
// layer's public API in-process and reports per-layer metrics. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload human_distinct --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (see -list); with -aa, the only one to measure")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same request sequence")
		seconds = flag.Int("seconds", 20, "length of the measured sequence: seconds x the workload's frozen requests-per-second")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics against a real psi-serve, tracing off; 1: per-layer metrics from the traced in-process run")
		root    = flag.String("root", "", "the checkout to benchmark, holding cmd/psi-serve (run.sh passes its own)")
		list    = flag.Bool("list", false, "print the workload and metric names and exit")
		smoke   = flag.Bool("smoke", false, "run every workload, end-to-end and traced, at --seconds 1")
		aa      = flag.Bool("aa", false, "measure run-to-run noise: two interleaved sets of ten runs per workload of this same code")
	)
	flag.Parse()
	if *list {
		printList()
		return 0
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1")
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: this machine has 1 CPU; the protocol needs 2 (server workers and the driver would measure the scheduler). Not running.")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	// An interrupted run takes its server with it.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		if srv := current.Load(); srv != nil {
			srv.kill()
		}
		os.Exit(130)
	}()
	env, err := newEnvironment(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("go %s, nproc %d, commit %s\n", runtime.Version(), runtime.NumCPU(), commit(env.root))

	switch {
	case *aa:
		err = runAA(env, *name, *seconds)
	case *smoke:
		err = runSmoke(env)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; -list names them\n", *name)
			return 2
		}
		fmt.Printf("workload %s, seed %d, seconds %d, trace %d\n", w.name, *seed, *seconds, *trace)
		var rep *report
		if rep, err = runOne(env, w, *seed, *seconds, *trace); err == nil {
			return printReport(rep, *trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func runOne(env *environment, w workload, seed int64, seconds, trace int) (*report, error) {
	if trace == 1 {
		return runTraced(env, w, seed, seconds)
	}
	return runEndToEnd(env, w, seed, seconds)
}

// newEnvironment makes the work directory under root's .bench_build/
// and builds psi-serve there.
func newEnvironment(root string) (*environment, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "psi-serve", "main.go")); err != nil {
		return nil, fmt.Errorf("-root %q does not hold cmd/psi-serve: %w", root, err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	env := &environment{root: abs, workDir: filepath.Join(abs, ".bench_build", "work"), procs: runtime.GOMAXPROCS(0)}
	if err := os.MkdirAll(env.workDir, 0o755); err != nil {
		return nil, err
	}
	env.serverBin, err = buildServer(env.root, env.workDir)
	return env, err
}

// commit names the checkout's HEAD, or "unknown" outside a git tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload %s\n", w.name)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %s %s\n", m.name, m.unit)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer %s %s\n", m.name, m.unit)
	}
}

// printReport prints every metric by name and unit, then the one-line
// JSON result. A run with failed requests, or one that compared no
// answer with the reference, is not correct and exits 1.
func printReport(rep *report, trace int) int {
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := rep.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", m.name)
			return 1
		}
		fmt.Printf("%-32s %14.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = value{v, m.unit}
	}
	correct := rep.failed == 0 && rep.verified > 0
	fmt.Printf("error_rate %.6f (%d failed of %d attempted; %d compared with the reference)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, rep.verified)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printSorted prints name/value pairs in name order.
func printSorted(values map[string]float64, suffix string) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.6g %s\n", name, values[name], suffix)
	}
}

// runSmoke is a quick end-to-end sanity pass: every workload, both
// modes, one second of sequence each.
func runSmoke(env *environment) error {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("--- smoke: %s, trace %d\n", w.name, trace)
			rep, err := runOne(env, w, 1, 1, trace)
			if err != nil {
				return fmt.Errorf("%s trace %d: %w", w.name, trace, err)
			}
			if code := printReport(rep, trace); code != 0 {
				return fmt.Errorf("%s trace %d: run not correct", w.name, trace)
			}
		}
	}
	fmt.Println("smoke: ok")
	return nil
}
