package signature

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func rowEq(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row length %d, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !approxEq(got[i], want[i]) {
			t.Errorf("%s: weight[%d] = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// TestExplorationPaperFigure1 checks the worked example of Section 3.1:
// NS^2 of node u1 in Figure 1(b) is {(A,1.25),(B,1),(C,1)} under the
// exploration (shortest-path) construction.
func TestExplorationPaperFigure1(t *testing.T) {
	g := graphtest.Figure1Data()
	s := MustBuild(g, 2, g.NumLabels(), Exploration)
	rowEq(t, s.Row(0), []float64{1.25, 1, 1}, "NS_u1")
}

// TestMatrixPaperFigure2 checks the full worked matrix example of Section
// 3.1: NS^1 and NS^2 of the Figure 2 query over labels (A,B,C,D).
func TestMatrixPaperFigure2(t *testing.T) {
	q := graphtest.Figure2Query()
	s1 := MustBuild(q.G, 1, 4, Matrix)
	for v, want := range graphtest.Figure2NS1 {
		rowEq(t, s1.Row(graph.NodeID(v)), want, "NS^1")
	}
	s2 := MustBuild(q.G, 2, 4, Matrix)
	for v, want := range graphtest.Figure2NS2 {
		rowEq(t, s2.Row(graph.NodeID(v)), want, "NS^2")
	}
	if s2.Depth() != 2 || s2.Width() != 4 || s2.NumNodes() != 5 {
		t.Errorf("metadata wrong: depth=%d width=%d nodes=%d", s2.Depth(), s2.Width(), s2.NumNodes())
	}
}

// TestSatisfiabilityScorePaper checks the worked score of Section 3.3:
// SS(u1, v1) = 1.75 for the Figure 1 signatures.
func TestSatisfiabilityScorePaper(t *testing.T) {
	u := []float64{1.25, 1, 1}
	v := []float64{1, 0.5, 0.5}
	if got := Score(u, v); !approxEq(got, 1.75) {
		t.Errorf("Score = %v, want 1.75", got)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	if got := Score([]float64{1, 2}, []float64{0, 0}); got != 0 {
		t.Errorf("all-zero query row: Score = %v, want 0", got)
	}
	// Query wider than data row: missing labels contribute 0.
	if got := Score([]float64{2}, []float64{1, 1}); !approxEq(got, 1) {
		t.Errorf("wider query: Score = %v, want 1", got)
	}
}

func TestSatisfies(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1.25, 1, 1}, []float64{1, 0.5, 0.5}, true},
		{[]float64{1, 0.5, 0.5}, []float64{1.25, 1, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, true},
		{[]float64{1, 0}, []float64{1, 0.1}, false},
		{[]float64{1}, []float64{1, 0}, true},    // b wider, extra weight zero
		{[]float64{1}, []float64{1, 0.5}, false}, // b wider, extra weight positive
		{nil, nil, true},
	}
	for i, c := range cases {
		if got := Satisfies(c.a, c.b); got != c.want {
			t.Errorf("case %d: Satisfies(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestDepthZero(t *testing.T) {
	g := graphtest.Figure1Data()
	s := MustBuild(g, 0, g.NumLabels(), Matrix)
	rowEq(t, s.Row(0), []float64{1, 0, 0}, "depth0 u1")
	s = MustBuild(g, 0, g.NumLabels(), Exploration)
	rowEq(t, s.Row(4), []float64{0, 1, 0}, "depth0 u5")
}

func TestBuildErrors(t *testing.T) {
	g := graphtest.Figure1Data()
	if _, err := Build(g, -1, 3, Matrix); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := Build(g, 2, 1, Matrix); err == nil {
		t.Error("narrow width accepted")
	}
	if _, err := Build(g, 2, 3, Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Build(g, maxDepth+1, 3, Exploration); err == nil {
		t.Error("depth beyond uint32 units accepted")
	}
}

func TestMethodString(t *testing.T) {
	if Matrix.String() != "matrix" || Exploration.String() != "exploration" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method String empty")
	}
}

func TestWidthPadding(t *testing.T) {
	g := graphtest.Figure1Data() // 3 labels
	s := MustBuild(g, 2, 10, Matrix)
	row := s.Row(0)
	if len(row) != 10 {
		t.Fatalf("row width %d, want 10", len(row))
	}
	for l := 3; l < 10; l++ {
		if row[l] != 0 {
			t.Errorf("padded label %d has weight %v", l, row[l])
		}
	}
}

// TestMatrixDominatesExploration: on any graph, the matrix method counts
// every walk while exploration counts only shortest paths, so matrix
// weights are >= exploration weights everywhere (same depth).
func TestMatrixDominatesExploration(t *testing.T) {
	f := func(seed int64) bool {
		g := graphtest.Random(3+int(seed%29+29)%29, 40, 4, seed)
		m := MustBuild(g, 2, g.NumLabels(), Matrix)
		e := MustBuild(g, 2, g.NumLabels(), Exploration)
		for u := 0; u < g.NumNodes(); u++ {
			mr, er := m.Row(graph.NodeID(u)), e.Row(graph.NodeID(u))
			for l := range mr {
				if mr[l] < er[l]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatrixPathExact checks hand-computed matrix signatures on the path
// a(0)-b(1)-c(2) at depth 2. The matrix method counts every walk, so a
// distance-1 neighbor's label also arrives through the neighbor's own
// NS^1 self-weight (e.g. NS^2(a)[B] = 1, not ½).
func TestMatrixPathExact(t *testing.T) {
	b := graph.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddNode(graph.Label(i))
	}
	for i := graph.NodeID(0); i < 2; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	m := MustBuild(g, 2, 3, Matrix)
	rowEq(t, m.Row(0), []float64{1.25, 1, 0.25}, "matrix a")
	rowEq(t, m.Row(1), []float64{1, 1.5, 1}, "matrix b")
	rowEq(t, m.Row(2), []float64{0.25, 1, 1.25}, "matrix c")
	e := MustBuild(g, 2, 3, Exploration)
	rowEq(t, e.Row(0), []float64{1, 0.5, 0.25}, "exploration a")
	rowEq(t, e.Row(1), []float64{0.5, 1, 0.5}, "exploration b")
	rowEq(t, e.Row(2), []float64{0.25, 0.5, 1}, "exploration c")
}

// TestSatisfactionSoundness is the property backing Proposition 3.2 in
// the form the evaluators rely on: if there is an embedding mapping query
// pivot v to data node u (here: identical graphs, identity mapping), then
// NS_u satisfies NS_v.
func TestSatisfactionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := graphtest.Random(4+int(seed%17+17)%17, 30, 3, seed)
		s := MustBuild(g, 2, g.NumLabels(), Matrix)
		for u := 0; u < g.NumNodes(); u++ {
			row := s.Row(graph.NodeID(u))
			if !Satisfies(row, row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestForQuery checks the one rule that builds a query's signatures:
// ForQuery's rows equal a direct Build of the query graph with the data
// signatures' method, depth and width, and carry that method.
func TestForQuery(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	for _, method := range []Method{Matrix, Exploration} {
		for depth := 0; depth <= 3; depth++ {
			data := MustBuild(g, depth, g.NumLabels()+1, method)
			s, err := ForQuery(q.G, data)
			if err != nil {
				t.Fatal(err)
			}
			want := MustBuild(q.G, depth, data.Width(), method)
			if s.Method() != method || s.Depth() != depth || s.Width() != data.Width() || s.NumNodes() != q.G.NumNodes() {
				t.Fatalf("%v D=%d: got method %v depth %d width %d nodes %d", method, depth, s.Method(), s.Depth(), s.Width(), s.NumNodes())
			}
			for v := graph.NodeID(0); int(v) < q.G.NumNodes(); v++ {
				if !slices.Equal(s.Scaled(v), want.Scaled(v)) {
					t.Errorf("%v D=%d node %d: ForQuery %v, Build %v", method, depth, v, s.Scaled(v), want.Scaled(v))
				}
			}
		}
	}
	// v1 has one B and one C neighbor at distance 1, nothing at distance 2.
	s, err := ForQuery(q.G, MustBuild(g, 2, 3, Exploration))
	if err != nil {
		t.Fatal(err)
	}
	rowEq(t, s.Row(q.Pivot), []float64{1, 0.5, 0.5}, "NS_v1")
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).MustBuild()
	s := MustBuild(g, 2, 0, Matrix)
	if s.NumNodes() != 0 {
		t.Errorf("NumNodes = %d, want 0", s.NumNodes())
	}
	s = MustBuild(g, 2, 0, Exploration)
	if s.NumNodes() != 0 {
		t.Errorf("NumNodes = %d, want 0", s.NumNodes())
	}
}
