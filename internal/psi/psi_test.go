package psi

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
	"repro/internal/signature"
)

// newEval builds an evaluator over matrix data signatures at depth 2, as
// SmartPSI does; the query side is derived from them.
func newEval(t testing.TB, g *graph.Graph, q graph.Query) *Evaluator {
	t.Helper()
	width := g.NumLabels()
	if w := q.G.NumLabels(); w > width {
		width = w
	}
	ds := signature.MustBuild(g, signature.DefaultDepth, width, signature.Matrix)
	e, err := NewEvaluator(g, q, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// referencePSI is a trivially-correct PSI oracle: naive backtracking over
// all label-preserving injective extensions, no pruning, no ordering.
func referencePSI(g *graph.Graph, q graph.Query, u graph.NodeID) bool {
	n := q.G.NumNodes()
	mapping := make([]graph.NodeID, n)
	for i := range mapping {
		mapping[i] = -1
	}
	if g.Label(u) != q.G.Label(q.Pivot) {
		return false
	}
	mapping[q.Pivot] = u
	var rec func() bool
	rec = func() bool {
		// Find an unmapped query node adjacent to a mapped one.
		next := graph.NodeID(-1)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if mapping[v] >= 0 {
				continue
			}
			for _, w := range q.G.Neighbors(v) {
				if mapping[w] >= 0 {
					next = v
					break
				}
			}
			if next >= 0 {
				break
			}
		}
		if next < 0 {
			// All mapped (connected query) — verify every edge.
			for v := graph.NodeID(0); int(v) < n; v++ {
				for i, w := range q.G.Neighbors(v) {
					if v > w {
						continue
					}
					el, ok := g.EdgeLabel(mapping[v], mapping[w])
					if !ok {
						return false
					}
					if ql := q.G.EdgeLabelAt(v, i); ql != graph.NoLabel && el != ql {
						return false
					}
				}
			}
			return true
		}
		for c := graph.NodeID(0); int(c) < g.NumNodes(); c++ {
			if g.Label(c) != q.G.Label(next) {
				continue
			}
			used := false
			for _, m := range mapping {
				if m == c {
					used = true
					break
				}
			}
			if used {
				continue
			}
			mapping[next] = c
			if rec() {
				mapping[next] = -1
				return true
			}
			mapping[next] = -1
		}
		return false
	}
	return rec()
}

func TestFigure1BothModes(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Heuristic(q, g))
	want := map[graph.NodeID]bool{0: true, 5: true} // u1 and u6
	for _, mode := range []Mode{Optimistic, Pessimistic} {
		st := NewState(q.Size())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			valid, err := e.Evaluate(st, c, u, mode, Limits{})
			if err != nil {
				t.Fatalf("%v node %d: %v", mode, u, err)
			}
			if valid != want[u] {
				t.Errorf("%v: node %d valid = %v, want %v", mode, u, valid, want[u])
			}
		}
	}
}

func TestAgainstReferenceOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(14, 30, 3, seed)
		// Extract a connected query of 3-5 nodes from g itself.
		start := graph.NodeID(rng.Intn(g.NumNodes()))
		comp := graph.ConnectedComponent(g, start)
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
		e, err := NewEvaluator(g, q, signature.MustBuild(g, 2, g.NumLabels(), signature.Matrix), nil)
		if err != nil {
			return false
		}
		c, err := plan.Compile(q, plan.Heuristic(q, g))
		if err != nil {
			return false
		}
		st := NewState(q.Size())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			want := referencePSI(g, q, u)
			for _, mode := range []Mode{Optimistic, Pessimistic} {
				got, err := e.Evaluate(st, c, u, mode, Limits{})
				if err != nil {
					return false
				}
				if got != want {
					t.Logf("seed %d node %d mode %v: got %v want %v", seed, u, mode, got, want)
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

func TestModesAgreeAcrossPlans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(16, 36, 3, seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		if len(comp) < 4 {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:4])
		if err != nil || !graph.IsConnected(sub) {
			return true
		}
		q, _ := graph.NewQuery(sub, 0)
		e := newEvalQuiet(g, q)
		plans := enumeratePlans(q, 6)
		var want []bool
		for pi, p := range plans {
			c := plan.MustCompile(q, p)
			st := NewState(q.Size())
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				got, err := e.Evaluate(st, c, u, Pessimistic, Limits{})
				if err != nil {
					return false
				}
				if pi == 0 {
					want = append(want, got)
				} else if got != want[u] {
					return false // result must be plan-independent
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func newEvalQuiet(g *graph.Graph, q graph.Query) *Evaluator {
	width := g.NumLabels()
	if w := q.G.NumLabels(); w > width {
		width = w
	}
	e, err := NewEvaluator(g, q, signature.MustBuild(g, 2, width, signature.Matrix), nil)
	if err != nil {
		panic(err)
	}
	return e
}

func TestEvaluatorConstructionErrors(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	ds := signature.MustBuild(g, 2, 3, signature.Matrix)
	qs := signature.MustBuild(q.G, 2, 3, signature.Matrix)
	wide := signature.MustBuild(q.G, 2, 5, signature.Matrix)
	shallow := signature.MustBuild(q.G, 1, 3, signature.Matrix)
	if _, err := NewEvaluator(g, q, ds, wide); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := NewEvaluator(g, q, ds, shallow); err == nil {
		t.Error("depth mismatch accepted")
	}
	if _, err := NewEvaluator(g, q, qs, qs); err == nil {
		t.Error("node-count mismatch accepted")
	}
	// Proposition 3.2 compares walk counts: a matrix data side against an
	// exploration query side is unsound however the shapes line up.
	explored := signature.MustBuild(q.G, 2, 3, signature.Exploration)
	if _, err := NewEvaluator(g, q, ds, explored); err == nil {
		t.Error("method mismatch accepted")
	}
	if _, err := NewEvaluator(g, q, ds, qs); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
	// The derived query side follows the data side's method.
	if _, err := NewEvaluator(g, q, signature.MustBuild(g, 2, 3, signature.Exploration), nil); err != nil {
		t.Errorf("exploration data with derived query signatures rejected: %v", err)
	}
}

func TestSuperOptimisticFindsMatchBeyondCap(t *testing.T) {
	// Star data graph: hub A connected to 30 B-leaves; only the LAST leaf
	// (highest id, lowest tie-break priority) also closes a triangle via
	// an extra C node. Query: A-B-C triangle. The super pass may miss it
	// (cap 10), but Evaluate must still return true via the full pass.
	b := graph.NewBuilder(33, 40)
	hub := b.AddNode(0) // A
	var leaves []graph.NodeID
	for i := 0; i < 30; i++ {
		leaves = append(leaves, b.AddNode(1)) // B
	}
	c := b.AddNode(2) // C
	for _, l := range leaves {
		if err := b.AddEdge(hub, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(hub, c); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(leaves[len(leaves)-1], c); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	q := graphtest.Figure1Query() // A-B-C triangle, pivot A
	e := newEval(t, g, q)
	cp := plan.MustCompile(q, plan.Plan{0, 1, 2})
	st := NewState(q.Size())
	valid, err := e.Evaluate(st, cp, hub, Optimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Error("optimistic missed a match beyond the super-optimistic cap")
	}
}

func TestDeadlineAborts(t *testing.T) {
	// A graph big enough that evaluation takes measurable time: dense
	// bipartite-ish blob with one label, query a 5-cycle of same label.
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(300, 4000)
	for i := 0; i < 300; i++ {
		b.AddNode(0)
	}
	for b.NumEdges() < 4000 {
		u, v := graph.NodeID(rng.Intn(300)), graph.NodeID(rng.Intn(300))
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
	q, _ := graph.NewQuery(qb.MustBuild(), 0)
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Heuristic(q, g))

	st := NewState(q.Size())
	// Already-expired deadline must abort promptly with ErrDeadline.
	_, err := e.Evaluate(st, c, 0, Pessimistic, Limits{Deadline: time.Now().Add(-time.Second)})
	if err != ErrDeadline {
		t.Errorf("expired deadline: err = %v, want ErrDeadline", err)
	}
	// Stop flag aborts with ErrStopped.
	var stop atomic.Bool
	stop.Store(true)
	_, err = e.Evaluate(st, c, 0, Optimistic, Limits{Stop: &stop})
	if err != ErrStopped {
		t.Errorf("stop flag: err = %v, want ErrStopped", err)
	}
}

func TestRace(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Heuristic(q, g))
	want := map[graph.NodeID]bool{0: true, 5: true}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		rr, err := e.Race(c, u, Limits{})
		if err != nil {
			t.Fatalf("race node %d: %v", u, err)
		}
		if rr.Valid != want[u] {
			t.Errorf("race node %d: valid = %v, want %v", u, rr.Valid, want[u])
		}
		if rr.Winner != Optimistic && rr.Winner != Pessimistic {
			t.Errorf("race node %d: winner = %v", u, rr.Winner)
		}
	}
}

func TestEvaluateAllStrategiesAgree(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	want := graphtest.Figure1PivotBindings()
	for _, s := range []Strategy{OptimisticOnly, PessimisticOnly, TwoThreaded} {
		res, err := EvaluateAll(e, s, 0, time.Time{})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := append([]graph.NodeID(nil), res.Bindings...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("%v: bindings %v, want %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: bindings %v, want %v", s, got, want)
			}
		}
		if res.Candidates != 2 { // two A-labeled nodes
			t.Errorf("%v: candidates = %d, want 2", s, res.Candidates)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Heuristic(q, g))
	st := NewState(q.Size())
	if _, err := e.Evaluate(st, c, 0, Optimistic, Limits{}); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Candidates == 0 || s.Recursions == 0 {
		t.Errorf("optimistic stats empty: %+v", s)
	}
	if s.ScoreCalcs == 0 {
		t.Errorf("optimistic did not compute scores: %+v", s)
	}
	st = NewState(q.Size())
	if _, err := e.Evaluate(st, c, 1, Pessimistic, Limits{}); err != nil {
		t.Fatal(err)
	}
	// Node u2 has label B, pivot is A: rejected before any recursion.
	s = st.Stats()
	if s.Recursions != 0 {
		t.Errorf("label-mismatched node recursed: %+v", s)
	}
	var total Stats
	total.Add(s)
	total.Add(Stats{Recursions: 1, Candidates: 2, SigPrunes: 3, Sorts: 4, ScoreCalcs: 5})
	if total.Recursions != 1 || total.Candidates != 2+s.Candidates || total.SigPrunes != 3 || total.Sorts != 4 || total.ScoreCalcs != 5 {
		t.Errorf("Add wrong: %+v", total)
	}
}

func TestPessimisticPrunesMore(t *testing.T) {
	// On the Figure 1 graph, evaluating invalid node u6... u6 is valid.
	// Use a graph where an A node has the right label but poor
	// neighborhood: add an isolated-ish A node.
	b := graph.NewBuilder(8, 12)
	u1 := b.AddNode(0)
	u2 := b.AddNode(1)
	u3 := b.AddNode(2)
	// A node with two B neighbors (so it passes the degree check) but no
	// C anywhere within two hops (so the signature check must prune it).
	lonely := b.AddNode(0)
	u5 := b.AddNode(1)
	u7 := b.AddNode(1)
	for _, e := range [][2]graph.NodeID{{u1, u2}, {u2, u3}, {u1, u3}, {lonely, u5}, {lonely, u7}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1, 2})
	st := NewState(q.Size())
	valid, err := e.Evaluate(st, c, lonely, Pessimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if valid {
		t.Fatal("lonely node should be invalid")
	}
	// The pessimist must have pruned it at step 0 via the signature
	// (its NS lacks any C weight), before any recursion.
	if st.Stats().Recursions != 0 {
		t.Errorf("pessimist recursed %d times on a signature-prunable node", st.Stats().Recursions)
	}
	if st.Stats().SigPrunes == 0 {
		t.Error("pessimist recorded no signature prunes")
	}
}

func TestModeHelpers(t *testing.T) {
	if Optimistic.Opposite() != Pessimistic || Pessimistic.Opposite() != Optimistic {
		t.Error("Opposite wrong")
	}
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Error("String wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode String empty")
	}
	for _, s := range []Strategy{OptimisticOnly, PessimisticOnly, TwoThreaded, Strategy(9)} {
		if s.String() == "" {
			t.Error("strategy String empty")
		}
	}
}

func TestEdgeLabeledMatching(t *testing.T) {
	// Data: A-B with edge label x, A-B with edge label y (two pairs).
	b := graph.NewBuilder(4, 2)
	a1 := b.AddNode(0)
	b1 := b.AddNode(1)
	a2 := b.AddNode(0)
	b2 := b.AddNode(1)
	if err := b.AddLabeledEdge(a1, b1, 0); err != nil { // x
		t.Fatal(err)
	}
	if err := b.AddLabeledEdge(a2, b2, 1); err != nil { // y
		t.Fatal(err)
	}
	g := b.MustBuild()
	// Query: A-B via edge labeled x, pivot A.
	qb := graph.NewBuilder(2, 1)
	qa := qb.AddNode(0)
	qbn := qb.AddNode(1)
	if err := qb.AddLabeledEdge(qa, qbn, 0); err != nil {
		t.Fatal(err)
	}
	q, _ := graph.NewQuery(qb.MustBuild(), qa)
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1})
	st := NewState(2)
	for _, mode := range []Mode{Optimistic, Pessimistic} {
		got1, err := e.Evaluate(st, c, a1, mode, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got2, err := e.Evaluate(st, c, a2, mode, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !got1 || got2 {
			t.Errorf("%v: edge labels not honored: a1=%v a2=%v, want true,false", mode, got1, got2)
		}
	}
}

func TestSingleNodeQuery(t *testing.T) {
	g := graphtest.Figure1Data()
	qb := graph.NewBuilder(1, 0)
	qb.AddNode(0) // single A node
	q, _ := graph.NewQuery(qb.MustBuild(), 0)
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Plan{0})
	st := NewState(1)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		want := g.Label(u) == 0
		for _, mode := range []Mode{Optimistic, Pessimistic} {
			got, err := e.Evaluate(st, c, u, mode, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v node %d: %v want %v", mode, u, got, want)
			}
		}
	}
}
