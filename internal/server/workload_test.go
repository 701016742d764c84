package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

// taggedFake records the fingerprint the server threads through
// EvaluateTagged, on top of fakeEval's scriptable behavior.
type taggedFake struct {
	fakeEval
	lastFingerprint string
	lastRequestID   string
}

func (f *taggedFake) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	f.mu.Lock()
	f.lastFingerprint = fingerprint
	f.lastRequestID = requestID
	f.mu.Unlock()
	return f.fakeEval.EvaluateTagged(q, deadline, requestID, fingerprint)
}

var fingerprintRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestServerWorkloadObservation: an armed server fingerprints each
// query at admission, threads the key through the tagged evaluator,
// folds outcomes into the sketch (repeat exact hits included), and
// serves the result at /queryz.
func TestServerWorkloadObservation(t *testing.T) {
	w := obs.NewWorkload(8)
	fake := &taggedFake{}
	_, ts := newTestServer(t, fake, Config{Workload: w})

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
	}

	d := w.Snapshot()
	if len(d.Shapes) != 1 {
		t.Fatalf("tracked shapes = %d, want 1 (same query twice)", len(d.Shapes))
	}
	top := d.Shapes[0]
	if top.Count != 2 || top.Totals.OK != 2 {
		t.Errorf("top shape count/ok = %d/%d, want 2/2", top.Count, top.Totals.OK)
	}
	if top.Totals.RepeatHits != 1 {
		t.Errorf("repeat hits = %d, want 1 (identical pivoted query repeated)", top.Totals.RepeatHits)
	}
	if top.Nodes != 3 || top.Edges != 3 {
		t.Errorf("shape dims = %d nodes %d edges, want the triangle's 3/3", top.Nodes, top.Edges)
	}

	fake.mu.Lock()
	fp, reqID := fake.lastFingerprint, fake.lastRequestID
	fake.mu.Unlock()
	if !fingerprintRE.MatchString(fp) {
		t.Fatalf("evaluator got fingerprint %q, want 16 hex digits", fp)
	}
	if fp != top.Fingerprint {
		t.Errorf("evaluator fingerprint %s != sketch fingerprint %s", fp, top.Fingerprint)
	}
	if reqID == "" {
		t.Error("tagged evaluator lost the request ID")
	}

	// /queryz is mounted on the serving mux and agrees with the sketch.
	resp, err := ts.Client().Get(ts.URL + "/queryz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.WorkloadData
	decErr := json.NewDecoder(resp.Body).Decode(&doc)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("/queryz?format=json = %d, %v", resp.StatusCode, decErr)
	}
	if len(doc.Shapes) != 1 || doc.Shapes[0].Fingerprint != fp {
		t.Errorf("/queryz shapes = %+v, want fingerprint %s", doc.Shapes, fp)
	}
}

// shardedGraph returns a graph on which each shard of a 2-way LabelHash
// partition owns at least MinTrainNodes label-0 nodes. Only the ML path
// stores the artifacts a warm run reuses, so a query pivoted on label 0
// trains on both shards.
func shardedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graphtest.Random(900, 2700, 3, 5)
	p, err := shard.Partition(g, 2, shard.LabelHash)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		owned := 0
		for _, u := range g.NodesWithLabel(0) {
			if int(p.Owner[u]) == i {
				owned++
			}
		}
		if owned < smartpsi.MinTrainNodes {
			t.Fatalf("shard %d owns %d label-0 candidates, want at least %d", i, owned, smartpsi.MinTrainNodes)
		}
	}
	return g
}

// requireWarmShardedDecisions posts a label-0 query to a 2-shard server
// until it runs warm on both shards. On that run every candidate the
// filter admits makes exactly one model-α decision, so the mode mix of
// totals (the query's shape in /queryz) must grow by exactly the run's
// candidates less its filtered ones. The
// client's answer carries no counts object: that is for coordinators.
func requireWarmShardedDecisions(t *testing.T, ts *httptest.Server, totals func() obs.ShapeAggregates) {
	t.Helper()
	q := &QueryJSON{Nodes: []int64{0, 1, 2}, Edges: [][]int64{{0, 1}, {1, 2}}, Pivot: 0}
	decisions := func() int64 {
		tot := totals()
		return tot.ModeOptimistic + tot.ModePessimistic
	}
	for i := 0; i < 5; i++ {
		warmBefore, before := obs.SmartPreparedHits.Value(), decisions()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: q, TimeoutMS: 60000})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		if obs.SmartPreparedHits.Value()-warmBefore != 2 {
			continue // not yet warm on both shards
		}
		var qr QueryResult
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if !qr.UsedML || len(qr.Shards) != 2 || qr.Candidates == 0 {
			t.Fatalf("used_ml = %v over %d shards with %d candidates, want an ML run on 2", qr.UsedML, len(qr.Shards), qr.Candidates)
		}
		if got := decisions() - before; got+qr.Filtered != int64(qr.Candidates) {
			t.Errorf("warm sharded run grew the shape's mode mix by %d and filtered %d, want its %d candidates", got, qr.Filtered, qr.Candidates)
		}
		if qr.Counts != nil {
			t.Errorf("client answer carries counts %+v, want none", qr.Counts)
		}
		return
	}
	t.Fatal("the query never ran warm on both shards")
}

// TestServerShardedWorkloadDecisions: behind a 2-shard in-process
// cluster, /queryz's mode mix counts every shard's decisions, not one
// shard's.
func TestServerShardedWorkloadDecisions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	c, err := shard.NewCluster(shardedGraph(t), shard.Options{Shards: 2, Engine: smartpsi.Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w := obs.NewWorkload(8)
	_, ts := newTestServer(t, c, Config{Workload: w})
	requireWarmShardedDecisions(t, ts, func() obs.ShapeAggregates {
		if d := w.Snapshot(); len(d.Shapes) == 1 {
			return d.Shapes[0].Totals
		}
		return obs.ShapeAggregates{}
	})
}

// TestServerFleetWorkloadDecisions is the networked twin: a coordinator
// over two HTTP shard nodes gathers the nodes' counts objects, so its
// /queryz mode mix and funnel count every node's decisions too. A node's
// own answer carries its counts; the coordinator's does not.
func TestServerFleetWorkloadDecisions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	ts, nodes, _ := startFleet(t, shardedGraph(t), 2, Config{Workload: obs.NewWorkload(8)})
	totals := func() obs.ShapeAggregates {
		resp, err := ts.Client().Get(ts.URL + "/queryz?format=json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc obs.WorkloadData
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/queryz?format=json = %d, %v", resp.StatusCode, err)
		}
		if len(doc.Shapes) == 1 {
			return doc.Shapes[0].Totals
		}
		return obs.ShapeAggregates{}
	}
	requireWarmShardedDecisions(t, ts, totals)
	if f := totals().Funnel; f.Generated <= 0 {
		t.Errorf("coordinator /queryz funnel = %+v, want generated > 0", f)
	}

	q := &QueryJSON{Nodes: []int64{0, 1, 2}, Edges: [][]int64{{0, 1}, {1, 2}}, Pivot: 0}
	resp, body := postJSON(t, nodes[0].Client(), nodes[0].URL+"/v1/psi", PSIRequest{Query: q, TimeoutMS: 60000})
	var qr QueryResult
	if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard node: status %d, %v: %s", resp.StatusCode, err, body)
	}
	if qr.Counts == nil || qr.Counts.Candidates != qr.Candidates || qr.Counts.Work().Recursions != qr.Recursions {
		t.Errorf("shard node counts = %+v, want its candidates %d and recursions %d", qr.Counts, qr.Candidates, qr.Recursions)
	}
}

// TestServerWorkloadUnarmed: with no sketch the serving path stays
// fingerprint-free — the evaluator sees an empty fingerprint and
// /queryz answers 503.
func TestServerWorkloadUnarmed(t *testing.T) {
	fake := &taggedFake{lastFingerprint: "sentinel"}
	_, ts := newTestServer(t, fake, Config{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	fake.mu.Lock()
	fp := fake.lastFingerprint
	fake.mu.Unlock()
	if fp != "" {
		t.Errorf("unarmed server still fingerprinted the query (%q)", fp)
	}
	r, err := ts.Client().Get(ts.URL + "/queryz")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := r.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/queryz unarmed = %d, want 503", r.StatusCode)
	}
}

// TestServerWorkloadErrorOutcome: a panicking evaluation is folded into
// the sketch as an error for its shape.
func TestServerWorkloadErrorOutcome(t *testing.T) {
	w := obs.NewWorkload(8)
	fake := &fakeEval{panicOn: true}
	_, ts := newTestServer(t, fake, Config{Workload: w})
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	d := w.Snapshot()
	if len(d.Shapes) != 1 || d.Shapes[0].Totals.Errors != 1 {
		t.Fatalf("error outcome not folded: %+v", d.Shapes)
	}
}

// TestWorkloadOutcomeMapping pins the error -> outcome column of the
// classify table, including the "client gone, observe nothing" case.
func TestWorkloadOutcomeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want string
		ok   bool
	}{
		{nil, obs.WorkloadOutcomeOK, true},
		{errShed, obs.WorkloadOutcomeShed, true},
		{context.DeadlineExceeded, obs.WorkloadOutcomeDeadline, true},
		{psi.ErrDeadline, obs.WorkloadOutcomeDeadline, true},
		{context.Canceled, "", false},
		{errors.New("boom"), obs.WorkloadOutcomeError, true},
	}
	for _, tc := range cases {
		got := classify(tc.err).outcome
		if ok := got != ""; got != tc.want || ok != tc.ok {
			t.Errorf("classify(%v).outcome = %q/%v, want %q/%v", tc.err, got, ok, tc.want, tc.ok)
		}
	}
}
