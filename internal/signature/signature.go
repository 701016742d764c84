// Package signature implements neighborhood signatures (Section 3.1 of
// the SmartPSI paper): per-node label-weight vectors where the weight of
// label l reflects how close and how numerous l-labeled nodes are around
// the node. Two construction strategies are provided — the
// exploration-based BFS of proximity pattern mining and the paper's
// faster iterated matrix-product formulation — plus the satisfaction test
// (Proposition 3.2) and the satisfiability score used by the optimistic
// evaluator.
package signature

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// DefaultDepth is the propagation depth used throughout the paper's
// examples and our experiments.
const DefaultDepth = 2

// Method selects a signature construction strategy.
type Method int

const (
	// Matrix builds signatures by D iterations of
	// NS^i = NS^{i-1} + ½·Adj·NS^{i-1} (the paper's optimization,
	// O(|N|·|L|·d·D)). Labels reachable through multiple paths are
	// counted once per path.
	Matrix Method = iota
	// Exploration builds signatures by per-node BFS, weighting each
	// reached node 2^-d by its shortest-path distance d
	// (O(|N|·|L|·d^D), the traditional approach).
	Exploration
)

func (m Method) String() string {
	switch m {
	case Matrix:
		return "matrix"
	case Exploration:
		return "exploration"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Signatures holds one dense weight row per node over a fixed label
// alphabet of Width labels.
type Signatures struct {
	rows  []float64
	width int
	depth int
}

// Build computes the signatures of every node of g at the given depth
// using the requested method. width is the label-alphabet size of the
// row vectors; it must be at least g.NumLabels() and is how query graphs
// (whose local alphabets are subsets) stay aligned with the data graph.
func Build(g *graph.Graph, depth, width int, method Method) (*Signatures, error) {
	if depth < 0 {
		return nil, fmt.Errorf("signature: negative depth %d", depth)
	}
	if width < g.NumLabels() {
		return nil, fmt.Errorf("signature: width %d < graph labels %d", width, g.NumLabels())
	}
	var s *Signatures
	switch method {
	case Matrix:
		s = buildMatrix(g, depth, width)
	case Exploration:
		s = buildExploration(g, depth, width)
	default:
		return nil, fmt.Errorf("signature: unknown method %v", method)
	}
	if invariant.Enabled() {
		if err := invariant.CheckSignatures(s, g); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustBuild is Build for known-good arguments; it panics on error.
func MustBuild(g *graph.Graph, depth, width int, method Method) *Signatures {
	s, err := Build(g, depth, width, method)
	if err != nil {
		panic(err)
	}
	return s
}

// FromDense wraps externally maintained rows (len = nodes*width, node-
// major) as a Signatures value. Package dyngraph uses it to hand its
// incrementally maintained matrix signatures to the evaluators.
func FromDense(rows []float64, width, depth int) (*Signatures, error) {
	if width <= 0 {
		return nil, fmt.Errorf("signature: width %d", width)
	}
	if len(rows)%width != 0 {
		return nil, fmt.Errorf("signature: %d values not divisible by width %d", len(rows), width)
	}
	return &Signatures{rows: rows, width: width, depth: depth}, nil
}

// Row returns node u's signature: a dense weight vector indexed by label.
// The caller must not modify it.
func (s *Signatures) Row(u graph.NodeID) []float64 {
	return s.rows[int(u)*s.width : (int(u)+1)*s.width]
}

// Width returns the label-alphabet size of the rows.
func (s *Signatures) Width() int { return s.width }

// Depth returns the propagation depth the signatures were built with.
func (s *Signatures) Depth() int { return s.depth }

// NumNodes returns the number of signature rows.
func (s *Signatures) NumNodes() int {
	if s.width == 0 {
		return 0
	}
	return len(s.rows) / s.width
}

// buildMatrix implements the paper's iterated-product construction. The
// per-node update only needs the previous iteration's rows, so each
// iteration double-buffers and rows are updated in parallel.
func buildMatrix(g *graph.Graph, depth, width int) *Signatures {
	n := g.NumNodes()
	cur := make([]float64, n*width)
	for u := 0; u < n; u++ {
		cur[u*width+int(g.Label(graph.NodeID(u)))] = 1
	}
	if depth == 0 || n == 0 {
		return &Signatures{rows: cur, width: width, depth: depth}
	}
	next := make([]float64, n*width)
	for it := 0; it < depth; it++ {
		parallelNodes(n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				dst := next[u*width : (u+1)*width]
				src := cur[u*width : (u+1)*width]
				copy(dst, src)
				for _, w := range g.Neighbors(graph.NodeID(u)) {
					row := cur[int(w)*width : (int(w)+1)*width]
					for l, v := range row {
						if v != 0 {
							dst[l] += 0.5 * v
						}
					}
				}
			}
		})
		cur, next = next, cur
	}
	return &Signatures{rows: cur, width: width, depth: depth}
}

// buildExploration implements the traditional BFS construction: each node
// reachable within depth hops contributes 2^-d for its label, where d is
// its shortest-path distance (counted once).
func buildExploration(g *graph.Graph, depth, width int) *Signatures {
	n := g.NumNodes()
	rows := make([]float64, n*width)
	parallelNodes(n, func(lo, hi int) {
		visited := make([]int32, n)
		for i := range visited {
			visited[i] = -1
		}
		var frontier, nextFrontier []graph.NodeID
		for u := lo; u < hi; u++ {
			row := rows[u*width : (u+1)*width]
			row[g.Label(graph.NodeID(u))] = 1
			visited[u] = int32(u)
			frontier = append(frontier[:0], graph.NodeID(u))
			weight := 1.0
			for d := 1; d <= depth && len(frontier) > 0; d++ {
				weight *= 0.5
				nextFrontier = nextFrontier[:0]
				for _, x := range frontier {
					for _, w := range g.Neighbors(x) {
						if visited[w] != int32(u) {
							visited[w] = int32(u)
							row[g.Label(w)] += weight
							nextFrontier = append(nextFrontier, w)
						}
					}
				}
				frontier, nextFrontier = nextFrontier, frontier
			}
		}
	})
	return &Signatures{rows: rows, width: width, depth: depth}
}

// parallelNodes splits [0, n) across GOMAXPROCS workers.
func parallelNodes(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForQuery builds the signatures of a query graph in the data graph's
// label space. Query graphs share the data graph's label identifiers, so
// only the row width differs.
func ForQuery(q graph.Query, depth, width int, method Method) (*Signatures, error) {
	return Build(q.G, depth, width, method)
}
