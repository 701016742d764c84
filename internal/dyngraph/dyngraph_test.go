package dyngraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/signature"
)

// rebuildSigs computes the ground-truth matrix signatures of the
// snapshot and compares them row by row with the maintained ones.
func checkSigsMatch(t testing.TB, d *Graph) {
	t.Helper()
	g, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := signature.MustBuild(g, Depth, d.Width(), signature.Matrix)
	for u := graph.NodeID(0); int(u) < d.NumNodes(); u++ {
		got := d.Signature(u)
		ref := want.Row(u)
		for l := range got {
			if math.Abs(got[l]-ref[l]) > 1e-9 {
				t.Fatalf("node %d label %d: maintained %v, rebuilt %v", u, l, got[l], ref[l])
			}
		}
	}
}

func TestIncrementalMatchesRebuildSmall(t *testing.T) {
	d := New(3)
	a, err := d.AddNode(0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.AddNode(1)
	c, _ := d.AddNode(2)
	checkSigsMatch(t, d)
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	checkSigsMatch(t, d)
	if err := d.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	checkSigsMatch(t, d)
	if err := d.AddEdge(a, c); err != nil {
		t.Fatal(err)
	}
	checkSigsMatch(t, d)
}

// TestIncrementalMatchesRebuildProperty: after any random insertion
// sequence the maintained rows equal a from-scratch rebuild.
func TestIncrementalMatchesRebuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := 1 + rng.Intn(4)
		d := New(labels)
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			if _, err := d.AddNode(graph.Label(rng.Intn(labels))); err != nil {
				return false
			}
		}
		for tries := 0; tries < n*3; tries++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v || d.HasEdge(u, v) {
				continue
			}
			if err := d.AddEdge(u, v); err != nil {
				return false
			}
		}
		g, err := d.Snapshot()
		if err != nil {
			return false
		}
		want := signature.MustBuild(g, Depth, labels, signature.Matrix)
		for u := graph.NodeID(0); int(u) < n; u++ {
			got := d.Signature(u)
			ref := want.Row(u)
			for l := range got {
				if math.Abs(got[l]-ref[l]) > 1e-9 {
					t.Logf("seed %d node %d label %d: %v vs %v", seed, u, l, got[l], ref[l])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromGraph(t *testing.T) {
	g := graphtest.Figure1Data()
	d, err := FromGraph(g, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != g.NumNodes() || d.NumEdges() != g.NumEdges() {
		t.Errorf("imported %d/%d, want %d/%d", d.NumNodes(), d.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	checkSigsMatch(t, d)
	// The paper's worked example: NS²(u1) = {A:1.25+walks, ...} — for the
	// matrix method the exact u1 row must match a direct build.
	want := signature.MustBuild(g, Depth, g.NumLabels(), signature.Matrix)
	row := d.Signature(0)
	for l, w := range want.Row(0) {
		if math.Abs(row[l]-w) > 1e-9 {
			t.Errorf("u1 label %d: %v, want %v", l, row[l], w)
		}
	}
	if _, err := FromGraph(g, 1); err == nil {
		t.Error("narrow width accepted")
	}
}

func TestMutationErrors(t *testing.T) {
	d := New(2)
	if _, err := d.AddNode(5); err == nil {
		t.Error("out-of-alphabet label accepted")
	}
	a, _ := d.AddNode(0)
	b, _ := d.AddNode(1)
	if err := d.AddEdge(a, a); err == nil {
		t.Error("self loop accepted")
	}
	if err := d.AddEdge(a, 99); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(b, a); err == nil {
		t.Error("duplicate edge accepted")
	}
	if !d.HasEdge(a, b) || !d.HasEdge(b, a) {
		t.Error("HasEdge not symmetric")
	}
	if d.Degree(a) != 1 || d.Label(b) != 1 {
		t.Error("accessors wrong")
	}
	if len(d.Neighbors(a)) != 1 {
		t.Error("neighbors wrong")
	}
}

// TestStreamingPSI: mutate, snapshot, evaluate — the maintained rows
// plug straight into the PSI evaluator and results match a cold build.
func TestStreamingPSI(t *testing.T) {
	g := graphtest.Figure1Data()
	d, err := FromGraph(g, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	// Grow the graph: a new A node wired like u6 (triangle with u5,u3).
	nu, err := d.AddNode(graphtest.LabelA)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(nu, 4); err != nil { // u5
		t.Fatal(err)
	}
	if err := d.AddEdge(nu, 2); err != nil { // u3
		t.Fatal(err)
	}
	checkSigsMatch(t, d)

	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := signature.FromDense(d.SignatureRows(), d.Width(), Depth)
	if err != nil {
		t.Fatal(err)
	}
	q := graphtest.Figure1Query()

	// The new node must now be a valid pivot binding alongside u1, u6.
	bindings := evaluateAllPessimistic(t, snap, q, sigs)
	want := []graph.NodeID{0, 5, nu}
	if len(bindings) != len(want) {
		t.Fatalf("bindings = %v, want %v", bindings, want)
	}
	for i := range want {
		if bindings[i] != want[i] {
			t.Fatalf("bindings = %v, want %v", bindings, want)
		}
	}
}

func TestSignatureFromDenseErrors(t *testing.T) {
	if _, err := signature.FromDense(make([]float64, 7), 3, 2); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := signature.FromDense(nil, 0, 2); err == nil {
		t.Error("zero width accepted")
	}
}

// TestRemoveEdgeMatchesRebuild: insertions interleaved with deletions
// keep the maintained rows equal to a from-scratch rebuild.
func TestRemoveEdgeMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := 1 + rng.Intn(4)
		d := New(labels)
		n := 5 + rng.Intn(10)
		for i := 0; i < n; i++ {
			if _, err := d.AddNode(graph.Label(rng.Intn(labels))); err != nil {
				return false
			}
		}
		type edge struct{ u, v graph.NodeID }
		var live []edge
		for step := 0; step < n*4; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := d.RemoveEdge(e.u, e.v); err != nil {
					return false
				}
				continue
			}
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v || d.HasEdge(u, v) {
				continue
			}
			if err := d.AddEdge(u, v); err != nil {
				return false
			}
			live = append(live, edge{u, v})
		}
		g, err := d.Snapshot()
		if err != nil {
			return false
		}
		want := signature.MustBuild(g, Depth, labels, signature.Matrix)
		for u := graph.NodeID(0); int(u) < n; u++ {
			got := d.Signature(u)
			ref := want.Row(u)
			for l := range got {
				if math.Abs(got[l]-ref[l]) > 1e-9 {
					t.Logf("seed %d node %d label %d: %v vs %v", seed, u, l, got[l], ref[l])
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

func TestRemoveEdgeErrors(t *testing.T) {
	d := New(2)
	a, _ := d.AddNode(0)
	b, _ := d.AddNode(1)
	if err := d.RemoveEdge(a, b); err == nil {
		t.Error("removing a missing edge accepted")
	}
	if err := d.RemoveEdge(a, 99); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(b, a); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 0 || d.HasEdge(a, b) {
		t.Error("edge not removed")
	}
	// Re-adding after removal works and signatures stay exact.
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	checkSigsMatch(t, d)
}
