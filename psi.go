// Package repro is the public API of the SmartPSI reproduction: an
// efficient system for Pivoted Subgraph Isomorphism (PSI) after
// Abdelhamid, Khayyat, Abdelaziz and Kalnis, "Pivoted Subgraph
// Isomorphism: The Optimist, the Pessimist and the Realist" (EDBT 2019).
//
// Given a labeled query graph with a designated pivot node, a PSI query
// returns the distinct data-graph nodes that bind the pivot in at least
// one embedding of the query — without enumerating the (exponentially
// many) embeddings themselves.
//
// # Quickstart
//
//	g, err := repro.LoadGraph("data.lg")
//	engine, err := repro.NewEngine(g, repro.Options{})
//	q, err := repro.LoadQuery("query.lg") // "p <id>" line sets the pivot
//	res, err := engine.Evaluate(q)
//	fmt.Println(res.Bindings)
//
// The Engine is the paper's full SmartPSI system: per-query Random
// Forest models select the optimistic or pessimistic evaluation method
// and a search order for every candidate node, a repeated query reuses
// each node's decision, and a preemptive executor recovers from wrong
// predictions. Lower-level building blocks (the individual evaluation
// methods, the full-isomorphism competitor engines, the frequent
// subgraph miner) live in the subpackages referenced below and are
// re-exported here where they form the supported surface.
package repro

import (
	"io"
	"time"

	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/signature"
	"repro/internal/smartpsi"
	"repro/internal/workload"

	"math/rand"
)

// Core graph types.
type (
	// Graph is an immutable labeled graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates nodes and edges into a Graph.
	Builder = graph.Builder
	// Query is a pivoted query graph.
	Query = graph.Query
	// NodeID identifies a node within a Graph.
	NodeID = graph.NodeID
	// Label identifies a node or edge label.
	Label = graph.Label
	// Stats summarizes a graph's shape.
	Stats = graph.Stats
)

// NoLabel marks an unlabeled edge.
const NoLabel = graph.NoLabel

// NewBuilder returns a graph builder with capacity hints.
func NewBuilder(nodeHint, edgeHint int) *Builder { return graph.NewBuilder(nodeHint, edgeHint) }

// NewQuery wraps g and a pivot node into a Query.
func NewQuery(g *Graph, pivot NodeID) (Query, error) { return graph.NewQuery(g, pivot) }

// LoadGraph reads a graph in LG format ("v <id> <label>" / "e <src>
// <dst> [<label>]") from the named file.
func LoadGraph(path string) (*Graph, error) { return graph.LoadLG(path) }

// ParseGraph reads a graph in LG format from r.
func ParseGraph(r io.Reader) (*Graph, error) { return graph.ParseLG(r) }

// SaveGraph writes g in LG format to the named file.
func SaveGraph(path string, g *Graph) error { return graph.SaveLG(path, g) }

// ParseQuery reads a pivoted query in LG format extended with "p <id>".
func ParseQuery(r io.Reader) (Query, error) { return graph.ParseQueryLG(r) }

// ComputeStats returns structural statistics for g.
func ComputeStats(g *Graph, countTriangles bool) Stats {
	return graph.ComputeStats(g, countTriangles)
}

// SmartPSI engine.
type (
	// Engine evaluates PSI queries with the full SmartPSI pipeline.
	Engine = smartpsi.Engine
	// Options configures an Engine; the zero value gives the full
	// system (Random Forest models, cache and preemption enabled). The
	// paper's training settings are constants, not options: 10% of the
	// candidates capped at 1000 nodes, six sampled plans for model β,
	// no models below smartpsi.MinTrainNodes (64) candidates. Data
	// signatures are always depth-2 matrix-built, and each query's
	// signatures are built the same way. The engine's own budgets (the
	// training sweep's per-plan limit, the preemption budgets)
	// count search work, not wall time, so a seed decides the same way
	// on any machine; a request's deadline is its one clock budget.
	Options = smartpsi.Options
	// Result reports one query evaluation: bindings plus training,
	// prediction, caching and preemption telemetry.
	Result = smartpsi.Result
)

// NewEngine builds a SmartPSI engine over g, computing all node
// signatures up front.
func NewEngine(g *Graph, opts Options) (*Engine, error) { return smartpsi.NewEngine(g, opts) }

// Workload extraction.

// ExtractQuery samples one connected query of the given size from g by
// random walk with restart, with a random pivot (the paper's workload
// generator).
func ExtractQuery(g *Graph, size int, rng *rand.Rand) (Query, error) {
	return workload.ExtractQuery(g, size, rng)
}

// ExtractQueries samples count queries of the given size.
func ExtractQueries(g *Graph, size, count int, rng *rand.Rand) ([]Query, error) {
	return workload.ExtractQueries(g, size, count, rng)
}

// Synthetic datasets (Table 3 stand-ins).

// DatasetNames lists the built-in synthetic dataset specs
// (yeast, cora, human, youtube, twitter, weibo).
func DatasetNames() []string { return gen.Names() }

// GenerateDataset builds the named dataset at its default experiment
// scale (the small graphs at published size, the web-scale graphs
// density-preservingly scaled down).
func GenerateDataset(name string) (*Graph, error) {
	spec, err := gen.DefaultSpec(name)
	if err != nil {
		return nil, err
	}
	return gen.Generate(spec)
}

// GenerateDatasetScaled builds the named dataset scaled down by factor.
func GenerateDatasetScaled(name string, factor int) (*Graph, error) {
	spec, err := gen.ScaledSpec(name, factor)
	if err != nil {
		return nil, err
	}
	return gen.Generate(spec)
}

// DatasetSpec describes a custom synthetic graph: node/edge/label
// counts, degree power-law exponent, label Zipf skew, triangle-closure
// and label-homophily fractions, and a seed.
type DatasetSpec = gen.Spec

// GenerateCustom builds a synthetic graph from a custom spec.
func GenerateCustom(spec DatasetSpec) (*Graph, error) { return gen.Generate(spec) }

// Frequent subgraph mining (the Section 5.5 application).
type (
	// MineConfig controls a frequent-subgraph-mining run.
	MineConfig = fsm.Config
	// Pattern is a mined subgraph pattern.
	Pattern = fsm.Pattern
	// MineResult reports a mining run.
	MineResult = fsm.Result
)

// MinePSI mines frequent subgraphs of g using PSI-based support
// counting (the paper's ScaleMine+SmartPSI configuration).
func MinePSI(g *Graph, cfg MineConfig) (*MineResult, error) {
	sigs, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	if err != nil {
		return nil, err
	}
	eval, err := fsm.NewPSISupport(g, sigs)
	if err != nil {
		return nil, err
	}
	return fsm.Mine(g, eval, cfg)
}

// MineIso mines frequent subgraphs of g using traditional
// full-enumeration subgraph isomorphism (the ScaleMine baseline).
func MineIso(g *Graph, cfg MineConfig) (*MineResult, error) {
	return fsm.Mine(g, fsm.NewIsoSupport(g), cfg)
}

// Deadline returns a time budget usable in MineConfig.Deadline and the
// benchmark drivers; zero duration means no deadline.
func Deadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}
