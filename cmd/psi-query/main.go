// Command psi-query evaluates one pivoted-subgraph-isomorphism query
// against a data graph with the SmartPSI engine.
//
// Usage:
//
//	psi-query -graph data.lg -query query.lg [-threads N] [-seed S] [-stats] [-explain]
//
// Both files use the LG text format ("v <id> <label>", "e <src> <dst>
// [<label>]"); the query file may add a "p <id>" line to set the pivot
// (default node 0). The distinct pivot bindings are printed one per
// line; -stats adds training/caching/preemption telemetry; -explain
// prints the query's execution profile (EXPLAIN ANALYZE tree: method
// decision, recovery-ladder timeline, per-depth candidate funnel) to
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	repro "repro"
	"repro/internal/obs"
)

func main() {
	graphPath := flag.String("graph", "", "data graph file (LG format)")
	queryPath := flag.String("query", "", "query file (LG format + optional 'p <id>')")
	threads := flag.Int("threads", 1, "candidate evaluation workers")
	seed := flag.Int64("seed", 1, "sampling seed")
	stats := flag.Bool("stats", false, "print evaluation telemetry")
	explain := flag.Bool("explain", false, "print the execution profile (EXPLAIN ANALYZE tree) to stderr")
	debugAddr := flag.String("debug-addr", "", "serve obs debug HTTP (metrics, per-query profiles, pprof) on this address")
	flag.Parse()

	if *graphPath == "" || *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		addr, closeFn, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psi-query:", err)
			os.Exit(1)
		}
		defer func() {
			if err := closeFn(); err != nil {
				fmt.Fprintln(os.Stderr, "psi-query: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /profilez /modelz /debug/pprof; per-query view: /profilez?id=N)\n", addr)
	}
	if err := run(*graphPath, *queryPath, *threads, *seed, *stats, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "psi-query:", err)
		os.Exit(1)
	}
}

func run(graphPath, queryPath string, threads int, seed int64, stats, explain bool) error {
	if explain {
		obs.Enable(true) // profiles only exist with collection on
	}
	g, err := repro.LoadGraph(graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	qf, err := os.Open(queryPath)
	if err != nil {
		return fmt.Errorf("loading query: %w", err)
	}
	q, err := repro.ParseQuery(qf)
	if cerr := qf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("parsing query: %w", err)
	}
	engine, err := repro.NewEngine(g, repro.Options{Threads: threads, Seed: seed})
	if err != nil {
		return err
	}
	res, err := engine.Evaluate(q)
	if err != nil {
		return err
	}
	for _, u := range res.Bindings {
		fmt.Println(u)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "candidates=%d bindings=%d trained=%d planClasses=%d\n",
			res.Candidates, len(res.Bindings), res.TrainedNodes, res.PlanClasses)
		fmt.Fprintf(os.Stderr, "train=%v fit=%v model=%v eval=%v total=%v\n",
			res.TrainTime, res.FitTime, res.ModelTime, res.EvalTime, res.TotalTime)
		work, alphaAcc := res.Work(), "n/a" // n/a: no fresh model-α prediction (no ML, or every decision read from a slot)
		if res.Alpha.Total > 0 {
			alphaAcc = fmt.Sprintf("%.1f%%", 100*res.Alpha.Accuracy())
		}
		fmt.Fprintf(os.Stderr, "cacheHits=%d cacheMisses=%d flips=%d fallbacks=%d alphaAcc=%s\n",
			res.CacheHits, res.CacheMisses, res.Flips, res.Fallbacks, alphaAcc)
		fmt.Fprintf(os.Stderr, "recursions=%d sigPrunes=%d capHits=%d deadlineAborts=%d\n",
			work.Recursions, work.SigPrunes, work.CapHits, work.Deadlines)
	}
	if explain {
		if err := res.Profile.Snapshot().WriteText(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}
