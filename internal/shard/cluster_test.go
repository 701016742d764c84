package shard

import (
	"errors"
	"math/rand"
	"slices"
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
	c, err := NewCluster(g, Options{Shards: 8, Engine: smartpsi.Options{Threads: 1}})
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
	if gth.Partial || !slices.Equal(gth.Res.Bindings, []graph.NodeID{0, 2}) || gth.Res.Candidates != 2 {
		t.Fatalf("partial=%v bindings=%v candidates=%d, want [0 2] of 2", gth.Partial, gth.Res.Bindings, gth.Res.Candidates)
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
	c, err := NewCluster(g, Options{Shards: 3, Engine: smartpsi.Options{Threads: 1}})
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
	c, err := NewCluster(g, Options{Shards: 2, Engine: smartpsi.Options{Threads: 1}})
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
