package signature

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

// floatMatrixRows is the float64 matrix construction the uint32 units
// replaced, verbatim apart from returning its rows: the reference every
// Row must reproduce bit for bit.
func floatMatrixRows(g *graph.Graph, depth, width int) []float64 {
	n := g.NumNodes()
	cur := make([]float64, n*width)
	for u := 0; u < n; u++ {
		cur[u*width+int(g.Label(graph.NodeID(u)))] = 1
	}
	if depth == 0 || n == 0 {
		return cur
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
	return cur
}

// floatExplorationRows is the float64 exploration construction the
// uint32 units replaced, verbatim apart from returning its rows.
func floatExplorationRows(g *graph.Graph, depth, width int) []float64 {
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
	return rows
}

// exactnessGraphs are the graphs the exactness tests run on: generated
// datasets (a YouTube scale-down keeps its hubs) and random graphs.
func exactnessGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{
		"random-40":  graphtest.Random(40, 120, 4, 1),
		"random-300": graphtest.Random(300, 1500, 9, 2),
	}
	for name, scale := range map[string]int{"yeast": 1, "cora": 1, "youtube": 2000} {
		spec, err := gen.ScaledSpec(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = gen.MustGenerate(spec)
	}
	return out
}

// TestRowsMatchFloatReference: for D in 0..3 and both methods, Row
// returns exactly the float64 weights of the reference builders, and the
// integer form of Proposition 3.2 on Scaled units (every positive entry
// of b covered by a) agrees with Satisfies on the float rows for every
// pair of a sample of nodes.
func TestRowsMatchFloatReference(t *testing.T) {
	for name, g := range exactnessGraphs(t) {
		width := g.NumLabels() + 1 // one padded label
		for depth := 0; depth <= 3; depth++ {
			for _, m := range []Method{Matrix, Exploration} {
				s := MustBuild(g, depth, width, m)
				ref := floatMatrixRows(g, depth, width)
				if m == Exploration {
					ref = floatExplorationRows(g, depth, width)
				}
				scratch := make([]float64, 0, width)
				for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
					row, into := s.Row(u), s.RowInto(u, scratch)
					for l, want := range ref[int(u)*width : (int(u)+1)*width] {
						if math.Float64bits(row[l]) != math.Float64bits(want) || math.Float64bits(into[l]) != math.Float64bits(want) {
							t.Fatalf("%s D=%d %v: node %d label %d: Row %v, RowInto %v, reference %v",
								name, depth, m, u, l, row[l], into[l], want)
						}
					}
				}
				step := max(1, g.NumNodes()/60)
				for u := 0; u < g.NumNodes(); u += step {
					for v := 0; v < g.NumNodes(); v += step {
						a, b := graph.NodeID(u), graph.NodeID(v)
						if got, want := unitsSatisfy(s.Scaled(a), s.Scaled(b)), Satisfies(s.Row(a), s.Row(b)); got != want {
							t.Fatalf("%s D=%d %v: nodes (%d,%d): integer test %v, Satisfies %v", name, depth, m, u, v, got, want)
						}
					}
				}
			}
		}
	}
}

// unitsSatisfy is Proposition 3.2 on rows of equal width in units.
func unitsSatisfy(a, b []uint32) bool {
	for l, w := range b {
		if w > 0 && a[l] < w {
			return false
		}
	}
	return true
}

// TestBuildRefusesOverflow: entries are uint32 units, so a build whose
// row totals pass 2^32 units is an error, not a wrapped table. On a
// single edge every matrix row total is 3^D (3^20 fits, 3^21 does not);
// the middle of a three-node path explores 2^D + 2·2^(D-1) = 2^(D+1)
// units (fits at D = 30, not at D = 31).
func TestBuildRefusesOverflow(t *testing.T) {
	path := func(n int) *graph.Graph {
		b := graph.NewBuilder(n, n-1)
		for i := 0; i < n; i++ {
			b.AddNode(0)
		}
		for i := graph.NodeID(1); int(i) < n; i++ {
			if err := b.AddEdge(i-1, i); err != nil {
				t.Fatal(err)
			}
		}
		return b.MustBuild()
	}
	edge, three := path(2), path(3)

	s, err := Build(edge, 20, 1, Matrix)
	if err != nil {
		t.Fatalf("3^20 units refused: %v", err)
	}
	if got := s.Scaled(0)[0]; got != 3486784401 {
		t.Fatalf("edge at depth 20: %d units, want 3^20", got)
	}
	_, err = Build(edge, 21, 1, Matrix)
	mustContain(t, err, "beyond uint32")

	if _, err := Build(three, 30, 1, Exploration); err != nil {
		t.Fatalf("2^31 units refused: %v", err)
	}
	_, err = Build(three, 31, 1, Exploration)
	mustContain(t, err, "node 1's depth-31 row exceeds uint32")
}

func mustContain(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an error mentioning %q", err, want)
	}
}
