package shard

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/psi"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

func testQueries(t *testing.T, g *graph.Graph, count int, seed int64) []graph.Query {
	t.Helper()
	qs, err := workload.ExtractQueries(g, 4, count, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ExtractQueries: %v", err)
	}
	return qs
}

func bindingsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deepQueries are the queries halo slicing used to refuse: a 6-node path
// pivoted at one end (pivot eccentricity 5) and size-7 extractions.
func deepQueries(t *testing.T, g *graph.Graph, seed int64) []graph.Query {
	t.Helper()
	b := graph.NewBuilder(6, 5)
	for i := 0; i < 6; i++ {
		b.AddNode(g.Label(graph.NodeID(i % 2)))
	}
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	qs, err := workload.ExtractQueries(g, 7, 3, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ExtractQueries: %v", err)
	}
	return append(qs, graph.Query{G: b.MustBuild(), Pivot: 0})
}

// The acceptance gate: scattering over any partitioner and shard count
// must return exactly the single-engine binding set, with no partial
// flag and no cross-shard duplicate bindings, having evaluated every
// candidate exactly once — deep pivots included.
func TestClusterEquivalence(t *testing.T) {
	engOpts := smartpsi.Options{Threads: 1, Seed: 42}
	for _, seed := range []int64{3, 17} {
		g := graphtest.Random(140, 420, 4, seed)
		single, err := smartpsi.NewEngine(g, engOpts)
		if err != nil {
			t.Fatal(err)
		}
		qs := append(testQueries(t, g, 6, seed+100), deepQueries(t, g, seed+200)...)
		want := make([][]graph.NodeID, len(qs))
		candidates := make([]int, len(qs))
		for i, q := range qs {
			res, err := single.EvaluateBudget(q, time.Time{})
			if err != nil {
				t.Fatalf("single engine: %v", err)
			}
			want[i], candidates[i] = res.Bindings, res.Candidates
		}
		for _, strat := range strategies {
			for _, n := range shardCounts {
				c, err := NewCluster(g, Options{Shards: n, Strategy: strat, Engine: engOpts})
				if err != nil {
					t.Fatalf("NewCluster(%v, %d): %v", strat, n, err)
				}
				for i, q := range qs {
					gth, err := c.EvaluateScatter(q, time.Time{}, "", "")
					if err != nil {
						t.Fatalf("seed %d %v/%d query %d: %v", seed, strat, n, i, err)
					}
					if gth.Partial {
						t.Fatalf("%v/%d query %d: unexpected partial result", strat, n, i)
					}
					if gth.Dups != 0 {
						t.Fatalf("%v/%d query %d: %d duplicate bindings across shards", strat, n, i, gth.Dups)
					}
					if !bindingsEqual(gth.Res.Bindings, want[i]) {
						t.Fatalf("seed %d %v/%d query %d: sharded bindings %v, single engine %v",
							seed, strat, n, i, gth.Res.Bindings, want[i])
					}
					if gth.Res.Candidates != candidates[i] {
						t.Fatalf("seed %d %v/%d query %d: scatter evaluated %d candidates, single engine %d",
							seed, strat, n, i, gth.Res.Candidates, candidates[i])
					}
					perShard := 0
					for _, ev := range c.evals {
						res, err := ev.EvaluateTagged(q, time.Time{}, "", "")
						if err != nil {
							t.Fatal(err)
						}
						perShard += res.Candidates
					}
					if perShard != candidates[i] {
						t.Fatalf("seed %d %v/%d query %d: per-shard candidates sum to %d, want %d",
							seed, strat, n, i, perShard, candidates[i])
					}
				}
				c.Close()
			}
		}
	}
}

// A shard count above the node count leaves shards that own nothing;
// they answer with no candidates and the gather is still exact.
func TestClusterEmptyShards(t *testing.T) {
	b := graph.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddNode(graph.Label(i % 2))
	}
	for i := 0; i < 2; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	c, err := NewCluster(g, Options{Shards: 8, Strategy: LabelHash, Engine: smartpsi.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owned := 0
	for _, st := range c.ShardStatuses() {
		owned += st.OwnedNodes
	}
	if owned != 3 {
		t.Fatalf("8 shards own %d of 3 nodes", owned)
	}
	// The graph is its own query: pivot 0 (label 0) binds both end nodes.
	gth, err := c.EvaluateScatter(graph.Query{G: g, Pivot: 0}, time.Time{}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if gth.Partial || !bindingsEqual(gth.Res.Bindings, []graph.NodeID{0, 2}) || gth.Res.Candidates != 2 {
		t.Fatalf("partial=%v bindings=%v candidates=%d, want [0 2] of 2", gth.Partial, gth.Res.Bindings, gth.Res.Candidates)
	}
}

// A fleet node answers with owned bindings on global ids; the union
// over all nodes equals the single-engine answer with no overlap.
func TestNodeEquivalence(t *testing.T) {
	engOpts := smartpsi.Options{Threads: 1, Seed: 42}
	g := graphtest.Random(140, 420, 4, 23)
	single, err := smartpsi.NewEngine(g, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	nodes := make([]*Node, n)
	for i := range nodes {
		if nodes[i], err = NewNode(g, Options{Strategy: DegreeBalanced, Engine: engOpts}, n, i); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range testQueries(t, g, 4, 77) {
		ref, err := single.EvaluateBudget(q, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[graph.NodeID]int)
		var union []graph.NodeID
		candidates := 0
		for i, node := range nodes {
			res, err := node.EvaluateTagged(q, time.Time{}, "", "")
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			candidates += res.Candidates
			for _, u := range res.Bindings {
				if prev, dup := seen[u]; dup {
					t.Fatalf("query %d: binding %d answered by shards %d and %d", qi, u, prev, i)
				}
				seen[u] = i
				union = append(union, u)
			}
		}
		if candidates != ref.Candidates {
			t.Fatalf("query %d: fleet evaluated %d candidates, single engine %d", qi, candidates, ref.Candidates)
		}
		if len(union) != len(ref.Bindings) {
			t.Fatalf("query %d: fleet union has %d bindings, single engine %d", qi, len(union), len(ref.Bindings))
		}
		for _, u := range ref.Bindings {
			if _, ok := seen[u]; !ok {
				t.Fatalf("query %d: fleet missed binding %d", qi, u)
			}
		}
	}
}

type fakeEval struct {
	err   error
	delay time.Duration
	res   *smartpsi.Result
}

func (f fakeEval) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.res, nil
}

// Losing one shard degrades to a flagged partial answer carrying the
// surviving shards' bindings.
func TestClusterPartialOnShardError(t *testing.T) {
	g := graphtest.Random(140, 420, 4, 31)
	c, err := NewCluster(g, Options{Shards: 3, Strategy: LabelHash, Engine: smartpsi.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := testQueries(t, g, 1, 5)[0]
	full, err := c.EvaluateScatter(q, time.Time{}, "", "")
	if err != nil {
		t.Fatal(err)
	}

	c.evals[1] = fakeEval{err: errors.New("shard exploded")}
	gth, err := c.EvaluateScatter(q, time.Time{}, "", "")
	if err != nil {
		t.Fatalf("partial scatter should succeed, got %v", err)
	}
	if !gth.Partial {
		t.Fatal("lost shard did not flag the gather partial")
	}
	if gth.Outcomes[1].Err == "" || gth.Outcomes[1].OK() {
		t.Fatalf("outcome for the lost shard: %+v", gth.Outcomes[1])
	}
	if len(gth.Res.Bindings) > len(full.Res.Bindings) {
		t.Fatalf("partial answer has more bindings (%d) than the full one (%d)", len(gth.Res.Bindings), len(full.Res.Bindings))
	}
	for _, u := range gth.Res.Bindings {
		if int(c.plan.Owner[u]) == 1 {
			t.Fatalf("binding %d owned by the lost shard leaked into the gather", u)
		}
	}
}

// All shards failing is a hard error, and all-timeout surfaces as the
// deadline error so the server answers 504.
func TestClusterAllShardsLost(t *testing.T) {
	g := graphtest.Random(80, 200, 3, 37)
	c, err := NewCluster(g, Options{Shards: 2, Strategy: LabelHash, Engine: smartpsi.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := testQueries(t, g, 1, 9)[0]

	for i := range c.evals {
		c.evals[i] = fakeEval{err: errors.New("down")}
	}
	if _, err := c.EvaluateScatter(q, time.Time{}, "", ""); err == nil {
		t.Fatal("all shards failed but scatter returned no error")
	}

	for i := range c.evals {
		c.evals[i] = fakeEval{err: psi.ErrDeadline}
	}
	if _, err := c.EvaluateScatter(q, time.Time{}, "", ""); !errors.Is(err, psi.ErrDeadline) {
		t.Fatalf("all-timeout scatter returned %v, want psi.ErrDeadline", err)
	}
}

// The per-shard deadline slice always leaves the gather a margin but
// never moves a deadline earlier than "now-ish" or later than the
// original.
func TestSliceDeadline(t *testing.T) {
	if !SliceDeadline(time.Time{}).IsZero() {
		t.Fatal("zero deadline must stay zero")
	}
	orig := time.Now().Add(2 * time.Second)
	sliced := SliceDeadline(orig)
	if !sliced.Before(orig) {
		t.Fatal("deadline slice reserved no gather margin")
	}
	if orig.Sub(sliced) > 300*time.Millisecond {
		t.Fatalf("gather margin %v too large", orig.Sub(sliced))
	}
}
