package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

// Shape classifies a query graph's topology. The paper's workloads "span
// a wide range of query complexities including paths, trees, stars and
// other complex shapes"; TestExtractedWorkloadSpansShapes checks ours do
// too.
type Shape int

const (
	// ShapePath is a simple path (tree with exactly two leaves).
	ShapePath Shape = iota
	// ShapeStar is a tree with one internal node and >= 3 leaves.
	ShapeStar
	// ShapeTree is any other acyclic connected query.
	ShapeTree
	// ShapeCycle is a single simple cycle (every degree exactly 2).
	ShapeCycle
	// ShapeComplex has at least one cycle plus additional structure.
	ShapeComplex
)

func (s Shape) String() string {
	switch s {
	case ShapePath:
		return "path"
	case ShapeStar:
		return "star"
	case ShapeTree:
		return "tree"
	case ShapeCycle:
		return "cycle"
	case ShapeComplex:
		return "complex"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// classify returns the shape of connected graph g. Single nodes and
// single edges classify as paths.
func classify(g *graph.Graph) Shape {
	n := int64(g.NumNodes())
	m := g.NumEdges()
	if n <= 2 {
		return ShapePath
	}
	acyclic := m == n-1
	if acyclic {
		leaves, internal, maxDeg := 0, 0, int32(0)
		for u := graph.NodeID(0); int64(u) < n; u++ {
			d := g.Degree(u)
			if d == 1 {
				leaves++
			} else {
				internal++
			}
			if d > maxDeg {
				maxDeg = d
			}
		}
		switch {
		case leaves == 2:
			return ShapePath
		case internal == 1 && leaves >= 3:
			return ShapeStar
		default:
			return ShapeTree
		}
	}
	if m == n {
		allDeg2 := true
		for u := graph.NodeID(0); int64(u) < n; u++ {
			if g.Degree(u) != 2 {
				allDeg2 = false
				break
			}
		}
		if allDeg2 {
			return ShapeCycle
		}
	}
	return ShapeComplex
}

// shapeDistribution counts the shapes across a query list.
func shapeDistribution(queries []graph.Query) map[Shape]int {
	out := make(map[Shape]int)
	for _, q := range queries {
		out[classify(q.G)]++
	}
	return out
}

func buildShape(t *testing.T, n int, edges [][2]graph.NodeID) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, len(edges))
	for i := 0; i < n; i++ {
		b.AddNode(0)
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]graph.NodeID
		want  Shape
	}{
		{"single node", 1, nil, ShapePath},
		{"single edge", 2, [][2]graph.NodeID{{0, 1}}, ShapePath},
		{"path4", 4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}}, ShapePath},
		{"star", 4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}}, ShapeStar},
		{"tree", 6, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}}, ShapeTree},
		{"triangle", 3, [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}}, ShapeCycle},
		{"square", 4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, ShapeCycle},
		{"cycle+chord", 4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, ShapeComplex},
		{"tadpole", 4, [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, ShapeComplex},
	}
	for _, c := range cases {
		g := buildShape(t, c.n, c.edges)
		if got := classify(g); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	for s := ShapePath; s <= ShapeComplex; s++ {
		if s.String() == "" {
			t.Errorf("shape %d has empty name", s)
		}
	}
	if Shape(99).String() == "" {
		t.Error("unknown shape empty")
	}
}

// TestExtractedWorkloadSpansShapes: the RWR workloads cover several
// shape classes, as the paper claims for its query sets.
func TestExtractedWorkloadSpansShapes(t *testing.T) {
	g := graphtest.Random(300, 900, 4, 17)
	rng := rand.New(rand.NewSource(5))
	qs, err := ExtractQueries(g, 5, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	dist := shapeDistribution(qs)
	if len(dist) < 2 {
		t.Errorf("workload covers only %d shape classes: %v", len(dist), dist)
	}
	total := 0
	for _, n := range dist {
		total += n
	}
	if total != 60 {
		t.Errorf("distribution covers %d queries, want 60", total)
	}
}
