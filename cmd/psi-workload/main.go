// Command psi-workload extracts query workloads from a data graph by
// random walk with restart (the paper's Section 5.1 methodology) and
// stores them as multi-graph LG files for reproducible experiments.
//
// Usage:
//
//	psi-workload -dataset cora -sizes 4-10 -count 100 -out queries.lg
//	psi-workload -graph g.lg -sizes 5 -count 50 -seed 7 -out q.lg
//	psi-workload -dataset cora -sizes 4-6 -count 10 -evaluate \
//	             -debug-addr 127.0.0.1:6060
//
// With -evaluate, the extracted queries are also run through the
// SmartPSI engine (useful with -debug-addr to watch live /metrics and
// /profilez while a workload executes). -debug-addr starts the obs debug
// HTTP server (metrics + per-query profiles + pprof) and implies metric
// collection.
//
// With collection on (PSI_OBS or -debug-addr), -evaluate ends by
// printing the /modelz report the run folded: model α's confusion
// matrix and model β's top-1 share against the training sweeps:
//
//	PSI_OBS=1 psi-workload -dataset cora -sizes 4-6 -count 10 -evaluate \
//	             -out /dev/null
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/graph"
	"repro/internal/obs"
)

func main() {
	graphPath := flag.String("graph", "", "data graph file (LG format)")
	dataset := flag.String("dataset", "", "built-in dataset name (alternative to -graph)")
	sizes := flag.String("sizes", "4-10", "query sizes: N or LO-HI")
	count := flag.Int("count", 100, "queries per size")
	seed := flag.Int64("seed", 42, "extraction seed")
	out := flag.String("out", "", "output file (empty: stdout)")
	evaluate := flag.Bool("evaluate", false, "also evaluate the extracted queries with SmartPSI")
	threads := flag.Int("threads", 1, "evaluation workers (with -evaluate)")
	debugAddr := flag.String("debug-addr", "", "serve obs debug HTTP (metrics, per-query profiles, pprof) on this address")
	flag.Parse()

	if *debugAddr != "" {
		addr, closeFn, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psi-workload:", err)
			os.Exit(1)
		}
		defer func() {
			if err := closeFn(); err != nil {
				fmt.Fprintln(os.Stderr, "psi-workload: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /profilez /modelz /debug/pprof; per-query view: /profilez?id=N)\n", addr)
	}

	if err := run(*graphPath, *dataset, *sizes, *count, *seed, *out, *evaluate, *threads, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "psi-workload:", err)
		os.Exit(1)
	}
}

// run extracts the workload and, with evaluate, runs it; progress and
// the /modelz report go to stderr.
func run(graphPath, dataset, sizes string, count int, seed int64, out string, evaluate bool, threads int, stderr io.Writer) error {
	lo, hi, err := parseSizes(sizes)
	if err != nil {
		return err
	}
	var g *graph.Graph
	switch {
	case graphPath != "":
		g, err = repro.LoadGraph(graphPath)
	case dataset != "":
		g, err = repro.GenerateDataset(dataset)
	default:
		return fmt.Errorf("need -graph or -dataset")
	}
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	var queries []graph.Query
	for size := lo; size <= hi; size++ {
		qs, err := repro.ExtractQueries(g, size, count, rng)
		if err != nil {
			return fmt.Errorf("size %d: %w", size, err)
		}
		queries = append(queries, qs...)
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteQuerySetLG(w, queries); err != nil {
		return err
	}
	_, _ = fmt.Fprintf(stderr, "extracted %d queries (sizes %d-%d, %d per size)\n",
		len(queries), lo, hi, count)
	if evaluate {
		return evaluateQueries(g, queries, threads, seed, stderr)
	}
	return nil
}

// evaluateQueries runs every extracted query through the SmartPSI
// engine. With collection enabled (-debug-addr or PSI_OBS) each query
// feeds the obs registry, the flight recorder and /modelz as it
// executes, and the /modelz report is printed once the workload has run.
func evaluateQueries(g *graph.Graph, queries []graph.Query, threads int, seed int64, stderr io.Writer) error {
	engine, err := repro.NewEngine(g, repro.Options{Threads: threads, Seed: seed})
	if err != nil {
		return err
	}
	var bindings, work int64
	for i, q := range queries {
		res, err := engine.Evaluate(q)
		if err != nil {
			return fmt.Errorf("evaluating query %d: %w", i, err)
		}
		bindings += int64(len(res.Bindings))
		work += res.Work().Recursions
	}
	_, _ = fmt.Fprintf(stderr, "evaluated %d queries: %d pivot bindings, %d recursions\n",
		len(queries), bindings, work)
	if !obs.Enabled() {
		return nil
	}
	_, _ = fmt.Fprintln(stderr)
	return obs.DefaultModelStats.Snapshot().WriteText(stderr)
}

func parseSizes(s string) (lo, hi int, err error) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		lo, err = strconv.Atoi(s[:i])
		if err != nil {
			return 0, 0, fmt.Errorf("bad sizes %q", s)
		}
		hi, err = strconv.Atoi(s[i+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("bad sizes %q", s)
		}
	} else {
		lo, err = strconv.Atoi(s)
		if err != nil {
			return 0, 0, fmt.Errorf("bad sizes %q", s)
		}
		hi = lo
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("bad size range %d-%d", lo, hi)
	}
	return lo, hi, nil
}
