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
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// alphabet of Width labels. Every weight is an integer multiple of
// 2^-Depth (both constructions only add 2^-d multiples of counts, d ≤
// Depth), so a row is stored exactly as uint32 counts of that unit. A
// value records the Method that built it: Proposition 3.2 compares two
// rows soundly only when both count walks the same way.
type Signatures struct {
	rows   []uint32 // weight × 2^depth, node-major
	width  int
	depth  int
	method Method
}

// maxDepth is the deepest signature Build accepts: a node's own label
// weighs 2^Depth units, which must fit a uint32 entry.
const maxDepth = 31

// Build computes the signatures of every node of g at the given depth
// using the requested method. width is the label-alphabet size of the
// row vectors; it must be at least g.NumLabels() and is how query graphs
// (whose local alphabets are subsets) stay aligned with the data graph.
// A graph whose weights would not fit uint32 units is refused.
func Build(g *graph.Graph, depth, width int, method Method) (*Signatures, error) {
	if depth < 0 || depth > maxDepth {
		return nil, fmt.Errorf("signature: depth %d outside [0, %d]", depth, maxDepth)
	}
	if width < g.NumLabels() {
		return nil, fmt.Errorf("signature: width %d < graph labels %d", width, g.NumLabels())
	}
	var s *Signatures
	var err error
	switch method {
	case Matrix:
		s, err = buildMatrix(g, depth, width)
	case Exploration:
		s, err = buildExploration(g, depth, width)
	default:
		return nil, fmt.Errorf("signature: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	s.method = method
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

// Scaled returns node u's row in units of 2^-Depth: entry l is u's weight
// for label l times 2^Depth, exactly. The evaluators' hot paths read it.
// The caller must not modify it.
func (s *Signatures) Scaled(u graph.NodeID) []uint32 {
	return s.rows[int(u)*s.width : (int(u)+1)*s.width]
}

// Row returns node u's signature as a newly allocated weight vector
// indexed by label.
func (s *Signatures) Row(u graph.NodeID) []float64 {
	return s.RowInto(u, nil)
}

// RowInto writes node u's weights into dst, reallocating it only when its
// capacity is below Width, and returns the Width-long result. The
// conversion is exact.
func (s *Signatures) RowInto(u graph.NodeID, dst []float64) []float64 {
	if cap(dst) < s.width {
		dst = make([]float64, s.width)
	}
	dst = dst[:s.width]
	unit := math.Ldexp(1, -s.depth)
	for l, v := range s.Scaled(u) {
		dst[l] = float64(v) * unit
	}
	return dst
}

// Width returns the label-alphabet size of the rows.
func (s *Signatures) Width() int { return s.width }

// Depth returns the propagation depth the signatures were built with.
func (s *Signatures) Depth() int { return s.depth }

// Method returns the construction the signatures were built with.
func (s *Signatures) Method() Method { return s.method }

// NumNodes returns the number of signature rows.
func (s *Signatures) NumNodes() int {
	if s.width == 0 {
		return 0
	}
	return len(s.rows) / s.width
}

// buildMatrix implements the paper's iterated-product construction in
// units: NS^i = NS^{i-1} + ½·Adj·NS^{i-1} multiplied by 2^i is
// S^i = 2·S^{i-1} + Adj·S^{i-1}, with S^0 the one-hot label rows. The
// per-node update only needs the previous iteration's rows, so each
// iteration double-buffers and rows are updated in parallel.
//
// Each row's total bounds its entries and obeys the same recurrence from
// T^0 = 1, so it rides along in uint64 and a build whose totals pass
// uint32 is refused. For depth 2 a total is at most 4 + 4·maxdeg + 2|E|.
func buildMatrix(g *graph.Graph, depth, width int) (*Signatures, error) {
	n := g.NumNodes()
	cur := make([]uint32, n*width)
	for u := 0; u < n; u++ {
		cur[u*width+int(g.Label(graph.NodeID(u)))] = 1
	}
	if depth == 0 || n == 0 {
		return &Signatures{rows: cur, width: width, depth: depth}, nil
	}
	next := make([]uint32, n*width)
	total, nextTotal := make([]uint64, n), make([]uint64, n)
	for u := range total {
		total[u] = 1
	}
	for it := 1; it <= depth; it++ {
		parallelNodes(n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				dst := next[u*width : (u+1)*width]
				for l, v := range cur[u*width : (u+1)*width] {
					dst[l] = 2 * v
				}
				t := 2 * total[u]
				for _, w := range g.Neighbors(graph.NodeID(u)) {
					for l, v := range cur[int(w)*width : (int(w)+1)*width] {
						dst[l] += v
					}
					t += total[w]
				}
				nextTotal[u] = t
			}
		})
		// Totals that passed the previous check are at most 2^32 and
		// degrees below 2^31, so no total computed above wrapped uint64.
		for u, t := range nextTotal {
			if t > math.MaxUint32 {
				return nil, fmt.Errorf("signature: node %d's depth-%d row sums to %d units of 2^-%d, beyond uint32", u, it, t, depth)
			}
		}
		cur, next = next, cur
		total, nextTotal = nextTotal, total
	}
	return &Signatures{rows: cur, width: width, depth: depth}, nil
}

// buildExploration implements the traditional BFS construction: each node
// reachable within depth hops contributes 2^-d for its label, where d is
// its shortest-path distance (counted once). In units the node's own
// label is 2^depth and a distance-d node adds 2^(depth-d).
func buildExploration(g *graph.Graph, depth, width int) (*Signatures, error) {
	n := g.NumNodes()
	rows := make([]uint32, n*width)
	var overflow atomic.Int64 // first node whose row total exceeds uint32, +1
	parallelNodes(n, func(lo, hi int) {
		visited := make([]int32, n)
		for i := range visited {
			visited[i] = -1
		}
		var frontier, nextFrontier []graph.NodeID
		for u := lo; u < hi; u++ {
			row := rows[u*width : (u+1)*width]
			weight := uint32(1) << depth
			row[g.Label(graph.NodeID(u))] = weight
			total := uint64(weight)
			visited[u] = int32(u)
			frontier = append(frontier[:0], graph.NodeID(u))
			for d := 1; d <= depth && len(frontier) > 0; d++ {
				weight >>= 1
				nextFrontier = nextFrontier[:0]
				for _, x := range frontier {
					for _, w := range g.Neighbors(x) {
						if visited[w] != int32(u) {
							visited[w] = int32(u)
							row[g.Label(w)] += weight
							total += uint64(weight)
							nextFrontier = append(nextFrontier, w)
						}
					}
				}
				frontier, nextFrontier = nextFrontier, frontier
			}
			if total > math.MaxUint32 {
				overflow.CompareAndSwap(0, int64(u)+1)
				return
			}
		}
	})
	if u := overflow.Load(); u != 0 {
		return nil, fmt.Errorf("signature: node %d's depth-%d row exceeds uint32 units of 2^-%d", u-1, depth, depth)
	}
	return &Signatures{rows: rows, width: width, depth: depth}, nil
}

// serialNodes is the node count below which parallelNodes runs on the
// caller's goroutine: a query graph's rows cost less than starting
// workers.
const serialNodes = 256

// parallelNodes splits [0, n) across GOMAXPROCS workers.
func parallelNodes(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < serialNodes {
		workers = 1
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

// ForQuery builds the signatures of query graph q for satisfaction tests
// against data: q's rows use data's method, depth and width. Query graphs
// share the data graph's label identifiers, so the width aligns them.
func ForQuery(q *graph.Graph, data *Signatures) (*Signatures, error) {
	return Build(q, data.depth, data.width, data.method)
}
