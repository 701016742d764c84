// Command psi-bench regenerates the paper's evaluation tables and
// figures over the synthetic Table 3 datasets.
//
// Usage:
//
//	psi-bench [-exp all|table1|table2|table3|fig7|fig8|fig9|fig10|fig11|table4|fig12|models]
//	          [-quick] [-scale N] [-seed S] [-list] [-json FILE]
//	          [-debug-addr HOST:PORT]
//
// -quick shrinks the sweep for a fast sanity run; -scale further divides
// every dataset's size (useful on small machines). Output is aligned
// text, one table per experiment, with ">"-prefixed cells marking runs
// censored by the time budget (the stand-in for the paper's 24-hour task
// limit).
//
// -json FILE additionally writes a machine-readable results document:
// the schema version, the run configuration, and a "metrics" key holding
// the final obs registry snapshot (recursion/prune/cache/recovery
// counters and latency histograms). It implies metric collection.
// -debug-addr serves the same data live over HTTP while the benchmark
// runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// reportSchema versions the -json results document.
const reportSchema = 1

// report is the schema of the -json results document.
type report struct {
	Schema         int          `json:"schema"`
	Experiment     string       `json:"experiment"`
	Quick          bool         `json:"quick"`
	Scale          int          `json:"scale"`
	Seed           int64        `json:"seed"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Metrics        obs.Snapshot `json:"metrics"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	quick := flag.Bool("quick", false, "use the fast configuration")
	scale := flag.Int("scale", 1, "extra dataset scale divisor")
	seed := flag.Int64("seed", 42, "workload seed")
	list := flag.Bool("list", false, "list experiments and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.String("json", "", "write results JSON (config + obs metrics snapshot) to this file")
	debugAddr := flag.String("debug-addr", "", "serve obs debug HTTP (metrics, per-query profiles, pprof) on this address")
	flag.Parse()
	bench.SetCSVMode(*csvOut)

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Description)
		}
		return
	}

	if *debugAddr != "" {
		addr, closeFn, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psi-bench:", err)
			os.Exit(1)
		}
		defer func() {
			if err := closeFn(); err != nil {
				fmt.Fprintln(os.Stderr, "psi-bench: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /profilez /modelz /debug/pprof; per-query view: /profilez?id=N)\n", addr)
	}
	if *jsonOut != "" {
		obs.Enable(true) // the snapshot is useless without collection
	}

	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	env := bench.NewEnv(*scale, *seed)

	start := time.Now()
	var err error
	if *exp == "all" {
		err = bench.RunAll(env, cfg, os.Stdout)
	} else {
		var e bench.Experiment
		if e, err = bench.Lookup(*exp); err == nil {
			err = e.Run(env, cfg, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psi-bench:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		rep := buildReport(*exp, *quick, *scale, *seed, time.Since(start))
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "psi-bench:", err)
			os.Exit(1)
		}
	}
}

// buildReport captures the run configuration and the final metrics
// snapshot.
func buildReport(exp string, quick bool, scale int, seed int64, elapsed time.Duration) report {
	return report{
		Schema:         reportSchema,
		Experiment:     exp,
		Quick:          quick,
		Scale:          scale,
		Seed:           seed,
		ElapsedSeconds: elapsed.Seconds(),
		Metrics:        obs.Default.Snapshot(),
	}
}

// writeReport emits the results JSON document.
func writeReport(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
