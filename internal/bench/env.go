// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). Each experiment is a
// function over a shared Env (which caches generated datasets, query
// workloads and SmartPSI engines) writing an aligned text table; the
// cmd/psi-bench binary prints them and BenchmarkExperiments runs them.
package bench

import (
	"fmt"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

// Env caches datasets, query sets and engines across experiments.
type Env struct {
	// ExtraScale further divides every dataset's default scale; quick
	// runs (unit benchmarks) use 4-8, full runs 1.
	ExtraScale int
	// Seed drives workload extraction and engine sampling.
	Seed int64

	mu      sync.Mutex
	graphs  map[string]*graph.Graph
	engines map[string]*smartpsi.Engine
	queries map[string]*workload.QuerySet
}

// NewEnv returns an Env with the given extra dataset scale (>=1).
func NewEnv(extraScale int, seed int64) *Env {
	if extraScale < 1 {
		extraScale = 1
	}
	return &Env{
		ExtraScale: extraScale,
		Seed:       seed,
		graphs:     make(map[string]*graph.Graph),
		engines:    make(map[string]*smartpsi.Engine),
		queries:    make(map[string]*workload.QuerySet),
	}
}

// Graph returns the named dataset at the Env's scale, generating and
// caching it on first use.
func (e *Env) Graph(name string) (*graph.Graph, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.graphs[name]; ok {
		return g, nil
	}
	def, err := gen.DefaultSpec(name)
	if err != nil {
		return nil, err
	}
	full, err := gen.FullSpec(name)
	if err != nil {
		return nil, err
	}
	defaultScale := 1
	if def.Nodes > 0 {
		defaultScale = full.Nodes / def.Nodes
		if defaultScale < 1 {
			defaultScale = 1
		}
	}
	spec, err := gen.ScaledSpec(name, defaultScale*e.ExtraScale)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	e.graphs[name] = g
	return g, nil
}

// Engine returns a cached SmartPSI engine for the named dataset.
func (e *Env) Engine(name string) (*smartpsi.Engine, error) {
	return e.EngineWithOptions(name, name, smartpsi.Options{Seed: e.Seed})
}

// EngineWithOptions returns a cached engine for the named dataset built
// with specific options, keyed separately from the default engine. The
// engines never reuse a query's trained artifact: the experiments
// measure the paper's per-query training cost (Table 4, Figures 7–9)
// and run the same queries repeatedly on one engine.
func (e *Env) EngineWithOptions(key, name string, opts smartpsi.Options) (*smartpsi.Engine, error) {
	g, err := e.Graph(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if eng, ok := e.engines[key]; ok {
		return eng, nil
	}
	opts.DisablePreparedCache = true
	eng, err := smartpsi.NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	e.engines[key] = eng
	return eng, nil
}

// Queries returns count queries of each size in [minSize, maxSize] for
// the named dataset, extracted once and cached.
func (e *Env) Queries(name string, minSize, maxSize, count int) (*workload.QuerySet, error) {
	g, err := e.Graph(name)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%d-%d/%d", name, minSize, maxSize, count)
	e.mu.Lock()
	defer e.mu.Unlock()
	if qs, ok := e.queries[key]; ok {
		return qs, nil
	}
	qs, err := workload.BuildQuerySet(g, minSize, maxSize, count, e.Seed)
	if err != nil {
		return nil, err
	}
	e.queries[key] = qs
	return qs, nil
}
