package smartpsi

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/workload"
)

// preparedFixture is a random graph whose every label has enough nodes
// for the ML path even when split three ways (about 300 per label, so
// about 100 per share of TestRunOwnedCandidates, over MinTrainNodes), an
// engine over it, and distinct (as numbered) extracted queries.
func preparedFixture(t *testing.T, opts Options, queries int) (*Engine, []graph.Query) {
	t.Helper()
	g := graphtest.Random(900, 2700, 3, 5)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	seen := map[uint64]bool{}
	var qs []graph.Query
	for len(qs) < queries {
		q, err := workload.ExtractQuery(g, 3+len(qs)%3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if h := hashQuery(q); !seen[h] {
			seen[h] = true
			qs = append(qs, q)
		}
	}
	return e, qs
}

func mustEvaluate(t *testing.T, e *Engine, q graph.Query) *Result {
	t.Helper()
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renumbered rebuilds q with node i renamed to (i+1) mod n, pivot mapped
// along: an isomorphic query that is a different graph as numbered.
func renumbered(t *testing.T, q graph.Query) graph.Query {
	t.Helper()
	n := q.G.NumNodes()
	to := func(u graph.NodeID) graph.NodeID { return (u + 1) % graph.NodeID(n) }
	b := graph.NewBuilder(n, int(q.G.NumEdges()))
	for v := graph.NodeID(0); int(v) < n; v++ {
		b.AddNode(q.G.Label((v + graph.NodeID(n) - 1) % graph.NodeID(n)))
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		for i, v := range q.G.Neighbors(u) {
			if u < v {
				if err := b.AddLabeledEdge(to(u), to(v), q.G.EdgeLabelAt(u, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return graph.Query{G: b.MustBuild(), Pivot: to(q.Pivot)}
}

// TestPreparedAdmitOnSecondSighting pins the admission rule: the first
// two sightings of a query train, the second one's artifact is kept, and
// every later sighting is warm; queries seen once retain nothing.
func TestPreparedAdmitOnSecondSighting(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 2}, 20)
	for _, q := range qs {
		if res := mustEvaluate(t, e, q); res.Warm || res.TrainedNodes == 0 {
			t.Fatalf("first sighting: warm=%v trained=%d, want a cold run", res.Warm, res.TrainedNodes)
		}
	}
	if n := len(e.prepared.entries); n != 0 || e.prepared.bytes != 0 {
		t.Fatalf("%d one-off queries retained %d artifacts, %d bytes", len(qs), n, e.prepared.bytes)
	}
	q := qs[0]
	want := referenceBindings(t, e, q)
	if res := mustEvaluate(t, e, q); res.Warm {
		t.Fatal("second sighting served warm: nothing was stored yet")
	}
	if n := len(e.prepared.entries); n != 1 {
		t.Fatalf("second sighting retained %d artifacts, want 1", n)
	}
	for i := 3; i <= 5; i++ {
		res := mustEvaluate(t, e, q)
		if !res.Warm || res.TrainedNodes != 0 || res.TrainTime != 0 || res.FitTime != 0 || !res.UsedML {
			t.Fatalf("sighting %d: warm=%v trained=%d train=%v fit=%v", i, res.Warm, res.TrainedNodes, res.TrainTime, res.FitTime)
		}
		// Every candidate, former training nodes included, is on the
		// predict path unless the filter refused it.
		if got := res.CacheHits + res.CacheMisses + res.Filtered; got != int64(res.Candidates) {
			t.Errorf("sighting %d: %d prediction lookups and %d filtered, want %d", i, res.CacheHits+res.CacheMisses, res.Filtered, res.Candidates)
		}
		if !sameNodes(res.Bindings, want) {
			t.Fatalf("sighting %d: %d bindings, want %d", i, len(res.Bindings), len(want))
		}
	}
}

// TestRunOwnedCandidates: Request.Owns restricts an evaluation to the
// candidates the predicate owns, on the ML path too. Three disjoint
// predicates over one engine answer exactly their share of the reference
// bindings, count each candidate once between them, and stay exact when
// a later share runs warm on the artifact an earlier share trained.
func TestRunOwnedCandidates(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 9}, 3)
	for qi, q := range qs {
		want := referenceBindings(t, e, q)
		var union []graph.NodeID
		candidates, warm := 0, 0
		for k := graph.NodeID(0); k < 3; k++ {
			owns := func(u graph.NodeID) bool { return u%3 == k }
			res, err := e.Run(Request{Query: q, Owns: owns})
			if err != nil {
				t.Fatal(err)
			}
			if res.Candidates < MinTrainNodes || !res.UsedML {
				t.Fatalf("query %d share %d: %d candidates, UsedML=%v; want at least %d on the ML path",
					qi, k, res.Candidates, res.UsedML, MinTrainNodes)
			}
			if res.Warm {
				warm++
			}
			var share []graph.NodeID
			for _, u := range want {
				if owns(u) {
					share = append(share, u)
				}
			}
			if !sameNodes(res.Bindings, share) {
				t.Fatalf("query %d share %d: bindings %v, want %v", qi, k, res.Bindings, share)
			}
			candidates += res.Candidates
			union = append(union, res.Bindings...)
		}
		if all := len(e.g.NodesWithLabel(q.G.Label(q.Pivot))); candidates != all {
			t.Errorf("query %d: shares evaluated %d candidates, the label has %d", qi, candidates, all)
		}
		if len(union) != len(want) {
			t.Errorf("query %d: shares found %d bindings, want %d", qi, len(union), len(want))
		}
		if warm != 1 {
			t.Errorf("query %d: %d warm shares, want the third only", qi, warm)
		}
	}
}

// TestPreparedKeyCollision forces two different queries onto one key.
// The first keeps it; the second is a counted mismatch, served cold and
// exactly, every time.
func TestPreparedKeyCollision(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 3}, 2)
	e.prepared.hash = func(graph.Query) uint64 { return 7 }
	a, b := qs[0], qs[1]
	wantA, wantB := referenceBindings(t, e, a), referenceBindings(t, e, b)
	for i := 0; i < 3; i++ {
		mustEvaluate(t, e, a)
	}
	mismatches := obs.SmartPreparedMismatches.Value()
	for i := 0; i < 3; i++ {
		res := mustEvaluate(t, e, b)
		if res.Warm {
			t.Fatal("colliding query served another query's artifact")
		}
		if !sameNodes(res.Bindings, wantB) {
			t.Fatalf("colliding query: %d bindings, want %d", len(res.Bindings), len(wantB))
		}
	}
	if d := obs.SmartPreparedMismatches.Value() - mismatches; d != 3 {
		t.Errorf("smartpsi_prepared_mismatches_total delta = %d, want 3", d)
	}
	res := mustEvaluate(t, e, a)
	if !res.Warm || !sameNodes(res.Bindings, wantA) {
		t.Errorf("key owner after collisions: warm=%v, %d bindings, want %d", res.Warm, len(res.Bindings), len(wantA))
	}
}

// TestPreparedRenumberedQueryMisses: the key is the query as numbered,
// so an isomorphic renumbering trains its own artifact — and answers the
// same.
func TestPreparedRenumberedQueryMisses(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 4}, 1)
	q := qs[0]
	twin := renumbered(t, q)
	if twin.Pivot == q.Pivot && graph.Equal(twin.G, q.G) {
		t.Skip("rotation is an automorphism of this query")
	}
	var want []graph.NodeID
	for i := 0; i < 3; i++ {
		want = mustEvaluate(t, e, q).Bindings
	}
	res := mustEvaluate(t, e, twin)
	if res.Warm {
		t.Error("renumbered query hit the original's artifact")
	}
	if !sameNodes(res.Bindings, want) {
		t.Errorf("renumbered query: %d bindings, original %d", len(res.Bindings), len(want))
	}
}

// TestPreparedConcurrentWarm hammers one warm artifact from many
// goroutines (planTiming and the prediction cache are shared); run under
// -race.
func TestPreparedConcurrentWarm(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 5, Threads: 2}, 1)
	q := qs[0]
	want := referenceBindings(t, e, q)
	for i := 0; i < 2; i++ {
		mustEvaluate(t, e, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := e.Evaluate(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Warm || !sameNodes(res.Bindings, want) {
					t.Errorf("warm=%v, %d bindings, want %d", res.Warm, len(res.Bindings), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreparedCaps drives the cache alone with more distinct repeated
// queries than it may hold, then with artifacts big enough to reach the
// byte cap: both caps hold throughout and every drop is counted.
func TestPreparedCaps(t *testing.T) {
	c := newPreparedCache()
	evictions := obs.SmartPreparedEvictions.Value()
	gauge := obs.SmartPreparedBytes.Value()
	check := func() {
		t.Helper()
		if len(c.entries) > preparedMaxEntries || c.bytes > preparedMaxBytes || c.lru.Len() != len(c.entries) {
			t.Fatalf("%d entries (%d listed), %d bytes: over a cap", len(c.entries), c.lru.Len(), c.bytes)
		}
		if d := obs.SmartPreparedBytes.Value() - gauge; d != c.bytes {
			t.Fatalf("smartpsi_prepared_bytes moved by %d, cache holds %d", d, c.bytes)
		}
	}
	const labels = 5
	var qs []graph.Query
	for code := 0; code < labels*labels*labels*labels && len(qs) < preparedMaxEntries+40; code++ {
		b := graph.NewBuilder(4, 3)
		for i, rest := 0, code; i < 4; i, rest = i+1, rest/labels {
			b.AddNode(graph.Label(rest % labels))
		}
		for i := graph.NodeID(0); i < 3; i++ {
			if err := b.AddEdge(i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		qs = append(qs, graph.Query{G: b.MustBuild()})
	}
	for _, q := range qs {
		if art, _, admit := c.lookup(q); art != nil || admit {
			t.Fatal("first sighting hit or was admitted")
		}
		art, key, admit := c.lookup(q)
		if art != nil || !admit {
			t.Fatal("second sighting not admitted")
		}
		c.store(key, &artifact{q: q})
		check()
		if art, _, _ := c.lookup(q); art == nil {
			t.Fatal("stored artifact not found")
		}
	}
	if len(c.entries) != preparedMaxEntries {
		t.Errorf("%d entries after %d stores, want the cap %d", len(c.entries), len(qs), preparedMaxEntries)
	}
	if d := obs.SmartPreparedEvictions.Value() - evictions; d != int64(len(qs)-preparedMaxEntries) {
		t.Errorf("evictions = %d, want %d", d, len(qs)-preparedMaxEntries)
	}
	if art, _, _ := c.lookup(qs[0]); art != nil {
		t.Error("least recently used artifact survived")
	}
	// Slots charging two fifths of the cap each: a third one cannot fit.
	slots := preparedMaxBytes * 2 / 5 / decisionSlotBytes
	for i := 0; i < 3; i++ {
		c.store(uint64(1e6+i), &artifact{decisions: make([]atomic.Uint32, slots)})
		check()
	}
	if len(c.entries) > 2 {
		t.Errorf("%d entries of %d slots each under a %d-byte cap", len(c.entries), slots, preparedMaxBytes)
	}
}

// TestDisablePreparedCache: with the ablation switch every evaluation is
// the paper's per-query pipeline, so repeats report identical training
// and work (every budget counts work, so work is exact).
func TestDisablePreparedCache(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 6, DisablePreparedCache: true}, 1)
	first := mustEvaluate(t, e, qs[0])
	for i := 0; i < 3; i++ {
		res := mustEvaluate(t, e, qs[0])
		if res.Warm || res.TrainedNodes != first.TrainedNodes || res.Work() != first.Work() {
			t.Fatalf("repeat %d: warm=%v trained=%d work=%+v; first run trained=%d work=%+v",
				i, res.Warm, res.TrainedNodes, res.Work(), first.TrainedNodes, first.Work())
		}
	}
}

// newRun builds the per-request state evaluate would for q.
func newRun(e *Engine, q graph.Query) (*queryRun, []int32) {
	r := &queryRun{res: &Result{}, candidates: e.g.NodesWithLabel(q.G.Label(q.Pivot))}
	r.labelled = len(r.candidates)
	r.valid = make([]bool, len(r.candidates))
	order := make([]int32, len(r.candidates))
	for i := range order {
		order[i] = int32(i)
	}
	return r, order
}

// TestPrepareTrainExecuteStages runs the three stages by hand: prepare
// compiles the plans, train labels a prefix and fits both forests,
// execute decides the rest, and together they are the exact answer.
func TestPrepareTrainExecuteStages(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 7}, 1)
	q := qs[0]
	rng := rand.New(rand.NewSource(e.opts.Seed))
	art, err := e.prepare(q, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.compiled) < 1 || len(art.compiled) > planSamples || art.alpha != nil || art.timing != nil {
		t.Fatalf("prepare: %d plans, alpha=%v timing=%v", len(art.compiled), art.alpha, art.timing)
	}
	if small, err := e.prepare(q, nil); err != nil || len(small.compiled) != 1 {
		t.Fatalf("prepare without sampling: %v, want exactly the heuristic plan", err)
	}
	r, order := newRun(e, q)
	trained, err := e.train(art, r, order, rng, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if trained == 0 || trained != r.res.TrainedNodes || art.alpha == nil || art.beta == nil || art.timing == nil {
		t.Fatalf("train: %d nodes, alpha=%v beta=%v", trained, art.alpha, art.beta)
	}
	if err := e.execute(art, r, order[trained:], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := e.collect(q, r); err != nil {
		t.Fatal(err)
	}
	if want := referenceBindings(t, e, q); !sameNodes(r.res.Bindings, want) {
		t.Errorf("%d bindings, want %d", len(r.res.Bindings), len(want))
	}
}

// TestTrainDeadlineCheckpoints lets the budget run out exactly at each
// of train's two checkpoints — after the sweep, and between the α and β
// fits — where a forest fit would otherwise start unchecked.
func TestTrainDeadlineCheckpoints(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 8}, 1)
	q := qs[0]
	for checkpoint := 0; checkpoint < 2; checkpoint++ {
		rng := rand.New(rand.NewSource(e.opts.Seed))
		art, err := e.prepare(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, order := newRun(e, q)
		deadline := time.Now().Add(300 * time.Millisecond)
		reached := false
		e.trainHook = func(i int) {
			if i == checkpoint {
				reached = true
				time.Sleep(time.Until(deadline) + time.Millisecond)
			}
		}
		_, err = e.train(art, r, order, rng, deadline)
		e.trainHook = nil
		if !reached {
			t.Skipf("checkpoint %d not reached within 300ms on this machine (%v)", checkpoint, err)
		}
		if err != psi.ErrDeadline {
			t.Fatalf("checkpoint %d: err = %v, want ErrDeadline", checkpoint, err)
		}
		if fitted := art.alpha != nil; fitted != (checkpoint == 1) || art.beta != nil {
			t.Errorf("checkpoint %d: alpha fitted=%v beta fitted=%v", checkpoint, fitted, art.beta != nil)
		}
	}
}

// TestAbortedTrainStoresNothing: a second sighting whose training runs
// out of budget must not leave a half-trained artifact behind.
func TestAbortedTrainStoresNothing(t *testing.T) {
	e, qs := preparedFixture(t, Options{Seed: 9}, 1)
	q := qs[0]
	mustEvaluate(t, e, q)
	deadline := time.Now().Add(300 * time.Millisecond)
	e.trainHook = func(int) { time.Sleep(time.Until(deadline) + time.Millisecond) }
	_, err := e.EvaluateBudget(q, deadline)
	e.trainHook = nil
	if err != psi.ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if n := len(e.prepared.entries); n != 0 {
		t.Fatalf("aborted train left %d artifacts", n)
	}
	if res := mustEvaluate(t, e, q); res.Warm || res.TrainedNodes == 0 {
		t.Errorf("after the abort: warm=%v trained=%d, want a full cold run", res.Warm, res.TrainedNodes)
	}
	if res := mustEvaluate(t, e, q); !res.Warm {
		t.Error("the completed train's artifact was not kept")
	}
}

// TestSlotHitsAreFreshPredictions: on generated graphs, with two
// workers and with requests that own only part of the candidates, every
// filled decision slot of every kept artifact holds exactly what the
// artifact's forests predict for that slot's node now, so a hit serves
// the same decision a fresh prediction would.
func TestSlotHitsAreFreshPredictions(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graphtest.Random(900, 2700, 3, seed)
		e, err := NewEngine(g, Options{Seed: seed, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var hits int64
		for size := 3; size <= 5; size++ {
			q, err := workload.ExtractQuery(g, size, rng)
			if err != nil {
				t.Fatal(err)
			}
			for sighting := range 6 {
				req := Request{Query: q}
				if sighting%2 == 1 {
					req.Owns = func(u graph.NodeID) bool { return u%3 != 0 }
				}
				res, err := e.Run(req)
				if err != nil {
					t.Fatal(err)
				}
				hits += res.CacheHits
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: no slot hits; the warm repeats exercised nothing", seed)
		}
		filled := 0
		for _, el := range e.prepared.entries {
			art := el.Value.(*artifact)
			nodes := g.NodesWithLabel(art.q.G.Label(art.q.Pivot))
			if len(art.decisions) != len(nodes) {
				t.Fatalf("seed %d: %d slots for %d pivot-labelled nodes", seed, len(art.decisions), len(nodes))
			}
			w := &worker{art: art}
			for slot, u := range nodes {
				got, full := decodeDecision(art.decisions[slot].Load())
				if !full {
					continue
				}
				filled++
				want, _ := w.predict(e.sigs.RowInto(u, nil))
				if got != want {
					t.Fatalf("seed %d: node %d's slot holds %+v, a fresh prediction is %+v", seed, u, got, want)
				}
			}
		}
		if filled == 0 {
			t.Fatalf("seed %d: no slot filled", seed)
		}
	}
}
