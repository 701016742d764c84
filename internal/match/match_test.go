package match

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

func engines(t testing.TB, g, q *graph.Graph) []Engine {
	t.Helper()
	bt, err := NewBacktracking(g, q)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := NewTurboIso(g, q)
	if err != nil {
		t.Fatal(err)
	}
	cfl, err := NewCFL(g, q)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{bt, ti, cfl}
}

func TestFigure1EmbeddingCount(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	for _, eng := range engines(t, g, q.G) {
		n, err := CountEmbeddings(eng, Budget{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if n != graphtest.Figure1EmbeddingCount {
			t.Errorf("%s: %d embeddings, want %d", eng.Name(), n, graphtest.Figure1EmbeddingCount)
		}
	}
}

func TestFigure1PivotBindings(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	want := graphtest.Figure1PivotBindings()
	for _, eng := range engines(t, g, q.G) {
		got, emb, err := PivotBindings(eng, q, Budget{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: bindings %v, want %v", eng.Name(), got, want)
		}
		if emb != graphtest.Figure1EmbeddingCount {
			t.Errorf("%s: %d intermediate embeddings, want %d", eng.Name(), emb, graphtest.Figure1EmbeddingCount)
		}
	}
}

func TestTurboIsoPlusFigure1(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	p, err := NewTurboIsoPlus(g, q)
	if err != nil {
		t.Fatal(err)
	}
	got, emb, err := p.PivotBindings(Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := graphtest.Figure1PivotBindings()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("bindings %v, want %v", got, want)
	}
	// TurboIso+ materializes exactly one embedding per valid binding,
	// far fewer than full enumeration.
	if emb != 2 {
		t.Errorf("embeddings = %d, want 2", emb)
	}
}

// TestTurboIsoPlusMatchesProjection: TurboIso+'s bindings must equal the
// projection of full enumeration on random inputs.
func TestTurboIsoPlusMatchesProjection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(15, 35, 3, seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		size := 3 + rng.Intn(3)
		if len(comp) < size {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:size])
		if err != nil || !graph.IsConnected(sub) {
			return true
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
		if err != nil {
			return false
		}
		bt, err := NewBacktracking(g, sub)
		if err != nil {
			return false
		}
		want, _, err := PivotBindings(bt, q, Budget{})
		if err != nil {
			return false
		}
		p, err := NewTurboIsoPlus(g, q)
		if err != nil {
			return false
		}
		got, _, err := p.PivotBindings(Budget{})
		if err != nil {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Logf("seed %d: got %v want %v", seed, got, want)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetMaxEmbeddings(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	for _, eng := range engines(t, g, q.G) {
		n, err := CountEmbeddings(eng, Budget{MaxEmbeddings: 2})
		if err != ErrBudget {
			t.Errorf("%s: err = %v, want ErrBudget", eng.Name(), err)
		}
		if n != 2 {
			t.Errorf("%s: count = %d, want 2", eng.Name(), n)
		}
	}
}

func TestBudgetDeadline(t *testing.T) {
	// Large single-label blob with a 6-cycle query: enumeration runs long
	// enough for the expired deadline to be noticed.
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(200, 3000)
	for i := 0; i < 200; i++ {
		b.AddNode(0)
	}
	for b.NumEdges() < 3000 {
		u, v := graph.NodeID(rng.Intn(200)), graph.NodeID(rng.Intn(200))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	qb := graph.NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		qb.AddNode(0)
	}
	for i := graph.NodeID(0); i < 6; i++ {
		if err := qb.AddEdge(i, (i+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	query := qb.MustBuild()
	deadline := time.Now().Add(5 * time.Millisecond)
	for _, eng := range engines(t, g, query) {
		_, err := CountEmbeddings(eng, Budget{Deadline: deadline})
		if err != ErrBudget {
			t.Errorf("%s: err = %v, want ErrBudget", eng.Name(), err)
		}
	}
}

func TestEngineConstructionErrors(t *testing.T) {
	g := graphtest.Figure1Data()
	empty := graph.NewBuilder(0, 0).MustBuild()
	db := graph.NewBuilder(2, 0)
	db.AddNode(0)
	db.AddNode(1)
	disconnected := db.MustBuild()
	if _, err := NewBacktracking(g, empty); err == nil {
		t.Error("backtracking accepted empty query")
	}
	if _, err := NewTurboIso(g, disconnected); err == nil {
		t.Error("turboiso accepted disconnected query")
	}
	if _, err := NewCFL(g, disconnected); err == nil {
		t.Error("cfl accepted disconnected query")
	}
	if _, err := NewTurboIsoPlus(g, graph.Query{G: disconnected, Pivot: 0}); err == nil {
		t.Error("turboiso+ accepted disconnected query")
	}
}

func TestCFLDecomposition(t *testing.T) {
	// Query: triangle 0-1-2 with a pendant path 2-3-4. Core = {0,1,2},
	// forest = {3}, leaf = {4}.
	b := graph.NewBuilder(5, 5)
	for i := 0; i < 5; i++ {
		b.AddNode(0)
	}
	edges := [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := b.MustBuild()
	g := graphtest.Figure1Data()
	c, err := NewCFL(g, q)
	if err != nil {
		t.Fatal(err)
	}
	wantCore := []bool{true, true, true, false, false}
	for v, want := range wantCore {
		if got := c.InCore(graph.NodeID(v)); got != want {
			t.Errorf("InCore(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestCFLRefinementPrunes(t *testing.T) {
	// Data graph has A nodes both with and without B neighbors; only
	// those with a B neighbor survive refinement for an A-B query node.
	b := graph.NewBuilder(4, 1)
	a1 := b.AddNode(0)
	bNode := b.AddNode(1)
	b.AddNode(0) // a2: isolated A, must be pruned
	if err := b.AddEdge(a1, bNode); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	qb := graph.NewBuilder(2, 1)
	qa := qb.AddNode(0)
	qbn := qb.AddNode(1)
	if err := qb.AddEdge(qa, qbn); err != nil {
		t.Fatal(err)
	}
	c, err := NewCFL(g, qb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.CandidateSetSizes()
	if sizes[0] != 1 { // only a1 survives for the A query node
		t.Errorf("candidate sizes = %v, want [1 1]", sizes)
	}
}

func TestVisitFuncEarlyStop(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	for _, eng := range engines(t, g, q.G) {
		var n int
		err := eng.Enumerate(Budget{}, func(m []graph.NodeID) bool {
			n++
			return n < 3
		})
		if err != nil {
			t.Errorf("%s: early stop returned %v", eng.Name(), err)
		}
		if n != 3 {
			t.Errorf("%s: visited %d, want 3", eng.Name(), n)
		}
	}
}

func TestMappingIsQueryIndexed(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	for _, eng := range engines(t, g, q.G) {
		err := eng.Enumerate(Budget{}, func(m []graph.NodeID) bool {
			if len(m) != 3 {
				t.Fatalf("%s: mapping length %d", eng.Name(), len(m))
			}
			// Labels must correspond: m[v] has v's label.
			for v := graph.NodeID(0); v < 3; v++ {
				if g.Label(m[v]) != q.G.Label(v) {
					t.Fatalf("%s: m[%d]=%d has label %d, want %d",
						eng.Name(), v, m[v], g.Label(m[v]), q.G.Label(v))
				}
			}
			// All edges present.
			for v := graph.NodeID(0); v < 3; v++ {
				for _, w := range q.G.Neighbors(v) {
					if !g.HasEdge(m[v], m[w]) {
						t.Fatalf("%s: edge (%d,%d) not mapped", eng.Name(), v, w)
					}
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
