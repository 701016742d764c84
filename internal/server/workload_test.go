package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
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

// TestServerShardedWorkloadDecisions: behind a 2-shard in-process
// cluster, /queryz's mode mix counts every shard's decisions, not one
// shard's. On a run warm on both shards every candidate makes exactly
// one model-α decision, so the shape's mode_optimistic +
// mode_pessimistic grows by exactly that run's candidates.
func TestServerShardedWorkloadDecisions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	c, err := shard.NewCluster(graphtest.Random(300, 900, 3, 5),
		shard.Options{Shards: 2, Engine: smartpsi.Options{Seed: 3, MinTrainNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w := obs.NewWorkload(8)
	_, ts := newTestServer(t, c, Config{Workload: w})
	q := &QueryJSON{Nodes: []int64{0, 1, 2}, Edges: [][]int64{{0, 1}, {1, 2}}, Pivot: 0}

	decisions := func() int64 {
		if d := w.Snapshot(); len(d.Shapes) == 1 {
			return d.Shapes[0].Totals.ModeOptimistic + d.Shapes[0].Totals.ModePessimistic
		}
		return 0
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
		if !qr.UsedML || len(qr.Shards) != 2 {
			t.Fatalf("used_ml = %v over %d shards, want an ML run on 2", qr.UsedML, len(qr.Shards))
		}
		if got := decisions() - before; got != int64(qr.Candidates) {
			t.Errorf("warm sharded run grew the shape's mode mix by %d, want its %d candidates", got, qr.Candidates)
		}
		return
	}
	t.Fatal("the query never ran warm on both shards")
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
