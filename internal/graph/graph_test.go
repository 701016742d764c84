package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildTriangle returns the Figure-1 style triangle query graph A-B-C.
func buildTriangle(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	a := b.AddNode(0)
	bb := b.AddNode(1)
	c := b.AddNode(2)
	for _, e := range [][2]NodeID{{a, bb}, {bb, c}, {a, c}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangle(t)
	if got := g.NumNodes(); got != 3 {
		t.Errorf("NumNodes = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.NumLabels(); got != 3 {
		t.Errorf("NumLabels = %d, want 3", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	for u := NodeID(0); u < 3; u++ {
		if got := g.Degree(u); got != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, got)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(2, 2)
	u := b.AddNode(0)
	v := b.AddNode(0)
	if err := b.AddEdge(u, u); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(u, 99); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(u, v); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(v, u); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := buildTriangle(t)
	for u := NodeID(0); u < 3; u++ {
		for v := NodeID(0); v < 3; v++ {
			want := u != v // triangle: all distinct pairs connected
			if got := g.HasEdge(u, v); got != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestNeighborsSortedByLabel(t *testing.T) {
	b := NewBuilder(6, 5)
	hub := b.AddNode(0)
	// Add neighbors with descending labels to force the sort to work.
	for l := Label(4); l >= 1; l-- {
		w := b.AddNode(l)
		if err := b.AddEdge(hub, w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	nbrs := g.Neighbors(hub)
	for i := 1; i < len(nbrs); i++ {
		if g.Label(nbrs[i-1]) > g.Label(nbrs[i]) {
			t.Fatalf("neighbors not label-sorted: %v", nbrs)
		}
	}
	for l := Label(1); l <= 4; l++ {
		if got := g.CountNeighborsWithLabel(hub, l); got != 1 {
			t.Errorf("CountNeighborsWithLabel(hub,%d) = %d, want 1", l, got)
		}
	}
	if got := g.CountNeighborsWithLabel(hub, 0); got != 0 {
		t.Errorf("CountNeighborsWithLabel(hub,0) = %d, want 0", got)
	}
}

func TestNodesWithLabel(t *testing.T) {
	b := NewBuilder(5, 0)
	ids := []NodeID{
		b.AddNode(1), b.AddNode(0), b.AddNode(1), b.AddNode(2), b.AddNode(1),
	}
	_ = ids
	g := b.MustBuild()
	got := g.NodesWithLabel(1)
	want := []NodeID{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("NodesWithLabel(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesWithLabel(1) = %v, want %v", got, want)
		}
	}
	if g.LabelFrequency(1) != 3 || g.LabelFrequency(0) != 1 || g.LabelFrequency(7) != 0 {
		t.Errorf("LabelFrequency wrong: %d %d %d",
			g.LabelFrequency(1), g.LabelFrequency(0), g.LabelFrequency(7))
	}
	if g.NodesWithLabel(-1) != nil || g.NodesWithLabel(99) != nil {
		t.Error("NodesWithLabel out of range should be nil")
	}
}

func TestEdgeLabels(t *testing.T) {
	b := NewBuilder(3, 2)
	u := b.AddNode(0)
	v := b.AddNode(1)
	w := b.AddNode(1)
	if err := b.AddLabeledEdge(u, v, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLabeledEdge(v, w, 9); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	if !g.HasEdgeLabels() {
		t.Fatal("HasEdgeLabels = false")
	}
	if l, ok := g.EdgeLabel(v, u); !ok || l != 7 {
		t.Errorf("EdgeLabel(v,u) = %d,%v want 7,true", l, ok)
	}
	if l, ok := g.EdgeLabel(w, v); !ok || l != 9 {
		t.Errorf("EdgeLabel(w,v) = %d,%v want 9,true", l, ok)
	}
	if _, ok := g.EdgeLabel(u, w); ok {
		t.Error("EdgeLabel(u,w) should not exist")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnlabeledEdgeGraph(t *testing.T) {
	g := buildTriangle(t)
	if g.HasEdgeLabels() {
		t.Fatal("unlabeled graph reports edge labels")
	}
	if l, ok := g.EdgeLabel(0, 1); !ok || l != NoLabel {
		t.Errorf("EdgeLabel = %d,%v want NoLabel,true", l, ok)
	}
	if g.EdgeLabelAt(0, 0) != NoLabel {
		t.Error("EdgeLabelAt should be NoLabel")
	}
}

func TestLabelTable(t *testing.T) {
	tab := NewLabelTable()
	a := tab.Intern("protein")
	b := tab.Intern("gene")
	if a2 := tab.Intern("protein"); a2 != a {
		t.Errorf("re-intern = %d, want %d", a2, a)
	}
	if a == b {
		t.Error("distinct names got same id")
	}
	if got, ok := tab.Lookup("gene"); !ok || got != b {
		t.Errorf("Lookup(gene) = %d,%v", got, ok)
	}
	if _, ok := tab.Lookup("missing"); ok {
		t.Error("Lookup(missing) = ok")
	}
	if tab.Name(a) != "protein" {
		t.Errorf("Name(a) = %q", tab.Name(a))
	}
	if tab.Name(99) != "L99" {
		t.Errorf("Name(99) = %q, want L99", tab.Name(99))
	}
	var nilTab *LabelTable
	if nilTab.Name(0) != "L0" || nilTab.Len() != 0 {
		t.Error("nil table accessors broken")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

// TestRandomGraphInvariants is a property test: any graph built from a
// random edge set passes Validate and has consistent degree/edge sums.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		labels := 1 + rng.Intn(6)
		b := NewBuilder(n, n*2)
		for i := 0; i < n; i++ {
			b.AddNode(Label(rng.Intn(labels)))
		}
		for tries := 0; tries < n*3; tries++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v || b.HasEdge(u, v) {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				return false
			}
		}
		g := b.MustBuild()
		if err := g.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		var degSum int64
		for u := 0; u < n; u++ {
			degSum += int64(g.Degree(NodeID(u)))
		}
		if degSum != 2*g.NumEdges() {
			return false
		}
		// Label index partitions the nodes.
		total := 0
		for l := 0; l < g.NumLabels(); l++ {
			total += len(g.NodesWithLabel(Label(l)))
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsConnected(t *testing.T) {
	g := buildTriangle(t)
	if !IsConnected(g) {
		t.Error("triangle should be connected")
	}
	b := NewBuilder(4, 1)
	u := b.AddNode(0)
	v := b.AddNode(0)
	b.AddNode(1)
	b.AddNode(1)
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if IsConnected(b.MustBuild()) {
		t.Error("two-component graph reported connected")
	}
	if !IsConnected(NewBuilder(0, 0).MustBuild()) {
		t.Error("empty graph should be connected")
	}
}

func TestConnectedComponent(t *testing.T) {
	b := NewBuilder(5, 2)
	u := b.AddNode(0)
	v := b.AddNode(0)
	w := b.AddNode(0)
	x := b.AddNode(1)
	y := b.AddNode(1)
	for _, e := range [][2]NodeID{{u, v}, {v, w}, {x, y}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	comp := ConnectedComponent(g, u)
	if len(comp) != 3 {
		t.Errorf("component of u has %d nodes, want 3", len(comp))
	}
	comp = ConnectedComponent(g, x)
	if len(comp) != 2 {
		t.Errorf("component of x has %d nodes, want 2", len(comp))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildTriangle(t)
	sub, orig, err := InducedSubgraph(g, []NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Errorf("induced: %d nodes %d edges, want 2,1", sub.NumNodes(), sub.NumEdges())
	}
	if sub.Label(0) != g.Label(orig[0]) || sub.Label(1) != g.Label(orig[1]) {
		t.Error("induced labels do not match originals")
	}
	if _, _, err := InducedSubgraph(g, []NodeID{0, 0}); err == nil {
		t.Error("duplicate induced node accepted")
	}
	if _, _, err := InducedSubgraph(g, []NodeID{99}); err == nil {
		t.Error("out-of-range induced node accepted")
	}
}

func TestQueryValidate(t *testing.T) {
	g := buildTriangle(t)
	q, err := NewQuery(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if q.Size() != 3 {
		t.Errorf("Size = %d, want 3", q.Size())
	}
	if _, err := NewQuery(g, 5); err == nil {
		t.Error("out-of-range pivot accepted")
	}
	if _, err := NewQuery(g, -1); err == nil {
		t.Error("negative pivot accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTriangle(t)
	s := ComputeStats(g, true)
	if s.Nodes != 3 || s.Edges != 3 || s.Labels != 3 {
		t.Errorf("stats basics wrong: %+v", s)
	}
	if s.AvgDegree != 2.0 {
		t.Errorf("AvgDegree = %v, want 2", s.AvgDegree)
	}
	if s.Triangles != 1 {
		t.Errorf("Triangles = %d, want 1", s.Triangles)
	}
	if s.DegreeP50 != 2 || s.DegreeP99 != 2 {
		t.Errorf("percentiles wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	empty := ComputeStats(NewBuilder(0, 0).MustBuild(), false)
	if empty.Nodes != 0 || empty.AvgDegree != 0 {
		t.Errorf("empty stats wrong: %+v", empty)
	}
}

func TestNeighborsWithLabelMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		labels := 1 + rng.Intn(5)
		b := NewBuilder(n, n*2)
		for i := 0; i < n; i++ {
			b.AddNode(Label(rng.Intn(labels)))
		}
		for tries := 0; tries < n*4; tries++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v && !b.HasEdge(u, v) {
				if err := b.AddEdge(u, v); err != nil {
					return false
				}
			}
		}
		g := b.MustBuild()
		u := NodeID(rng.Intn(n))
		l := Label(rng.Intn(labels))
		got := g.NeighborsWithLabel(u, l)
		var want []NodeID
		for _, w := range g.Neighbors(u) {
			if g.Label(w) == l {
				want = append(want, w)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
