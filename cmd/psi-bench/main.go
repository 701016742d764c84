// Command psi-bench regenerates the paper's evaluation tables and
// figures over the synthetic Table 3 datasets.
//
// Usage:
//
//	psi-bench [-exp all|table1|table2|table3|fig7|fig8|fig9|fig10|fig11|table4|fig12|models|ablations]
//	          [-quick] [-scale N] [-seed S] [-list]
//	          [-debug-addr HOST:PORT]
//
// -quick shrinks the sweep for a fast sanity run; -scale further divides
// every dataset's size (useful on small machines). Output is aligned
// text, one table per experiment, with ">"-prefixed cells marking runs
// censored by the time budget (the stand-in for the paper's 24-hour task
// limit). A timed cell also prints "k/nq" when its cumulative budget cut
// it after k of its n queries, its finished queries' work units "Nu"
// when the system counts them, and its censored query count "Nc".
//
// -debug-addr serves the obs debug endpoints while the benchmark runs
// and implies metric collection; /metrics.json there is the registry
// snapshot.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	quick := flag.Bool("quick", false, "use the fast configuration")
	scale := flag.Int("scale", 1, "extra dataset scale divisor")
	seed := flag.Int64("seed", 42, "workload seed")
	list := flag.Bool("list", false, "list experiments and exit")
	debugAddr := flag.String("debug-addr", "", "serve obs debug HTTP (metrics, per-query profiles, pprof) on this address")
	flag.Parse()

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

	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	env := bench.NewEnv(*scale, *seed)

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
}
