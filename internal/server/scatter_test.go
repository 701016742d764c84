package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/shard"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

// fakeScatterEval scripts the scatter extension for handler tests.
type fakeScatterEval struct {
	gather *shard.Gather
	err    error
}

func (f *fakeScatterEval) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	g, err := f.EvaluateScatter(q, deadline, requestID, fingerprint)
	if err != nil {
		return nil, err
	}
	return g.Res, nil
}

func (f *fakeScatterEval) EvaluateScatter(q graph.Query, deadline time.Time, requestID, fingerprint string) (*shard.Gather, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.gather, nil
}

func (f *fakeScatterEval) ShardStatuses() []shard.Status {
	return []shard.Status{{Index: 0, Healthy: true}, {Index: 1, Healthy: false, Err: "connection refused"}}
}

// A partial gather must surface on the wire (partial flag, per-shard
// outcomes) and burn server_partial_total.
func TestServerPartialResponse(t *testing.T) {
	fake := &fakeScatterEval{gather: &shard.Gather{
		Res:     &smartpsi.Result{Bindings: []graph.NodeID{4, 9}, Counts: smartpsi.Counts{Candidates: 7}},
		Partial: true,
		Outcomes: []shard.Outcome{
			{Shard: 0, Bindings: 2, Elapsed: 3 * time.Millisecond},
			{Shard: 1, Err: "connection refused"},
		},
	}}
	_, ts := newTestServer(t, fake, Config{})
	before := obs.ServerPartials.Value()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResult
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial {
		t.Fatal("partial gather served without the partial flag")
	}
	if len(qr.Shards) != 2 || qr.Shards[1].Error == "" || qr.Shards[0].Bindings != 2 {
		t.Fatalf("shard outcomes on the wire: %+v", qr.Shards)
	}
	if len(qr.Bindings) != 2 {
		t.Fatalf("bindings: %v", qr.Bindings)
	}
	if obs.ServerPartials.Value() != before+1 {
		t.Fatal("server_partial_total did not count the partial answer")
	}
}

// /readyz surfaces the evaluator's per-shard health rows.
func TestServerReadyzShardHealth(t *testing.T) {
	fake := &fakeScatterEval{gather: &shard.Gather{Res: &smartpsi.Result{}}}
	_, ts := newTestServer(t, fake, Config{})
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Status        string         `json:"status"`
		Shards        []shard.Status `json:"shards"`
		ShardsHealthy int            `json:"shards_healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || len(ready.Shards) != 2 || ready.ShardsHealthy != 1 {
		t.Fatalf("readyz = %+v", ready)
	}
	if ready.Shards[1].Healthy || ready.Shards[1].Err == "" {
		t.Fatalf("unhealthy shard row lost: %+v", ready.Shards[1])
	}
}

// startFleet boots n shard-node servers over g and a coordinator server
// scattering to them, returning the coordinator's base URL and the
// per-node test servers.
func startFleet(t *testing.T, g *graph.Graph, n int, cfg Config) (*httptest.Server, []*httptest.Server, *Coordinator) {
	t.Helper()
	ids := make([][2]int, n)
	for i := range ids {
		ids[i] = [2]int{n, i}
	}
	return startFleetOf(t, g, ids, cfg)
}

// startFleetOf is startFleet with each node's identity spelled out:
// ids[i] = {shard count, shard index} of the node at address position i.
func startFleetOf(t *testing.T, g *graph.Graph, ids [][2]int, cfg Config) (*httptest.Server, []*httptest.Server, *Coordinator) {
	t.Helper()
	nodes := make([]*httptest.Server, len(ids))
	addrs := make([]string, len(ids))
	for i, id := range ids {
		node, err := shard.NewNode(g, shard.Options{Strategy: shard.LabelHash, Engine: smartpsi.Options{Threads: 1}}, id[0], id[1])
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
		ns := NewServer(node, Config{})
		nodes[i] = httptest.NewServer(ns.Handler())
		t.Cleanup(nodes[i].Close)
		addrs[i] = nodes[i].URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{Addrs: addrs, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cs := NewServer(coord, cfg)
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)
	return ts, nodes, coord
}

// End-to-end fleet equivalence: a coordinator over two HTTP shard nodes
// answers exactly what the model-free reference computes, and losing a
// node degrades to flagged partial answers plus an unhealthy /readyz
// row.
func TestCoordinatorFleet(t *testing.T) {
	g := graphtest.Random(120, 360, 4, 51)
	ref, err := NewReference(g)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.ExtractQueries(g, 4, 4, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	ts, nodes, coord := startFleet(t, g, 2, Config{})

	for i, q := range qs {
		want, err := ref.Bindings(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
			PSIRequest{Query: ptrQueryJSON(QueryToJSON(q)), TimeoutMS: 10000})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
		var qr QueryResult
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Partial {
			t.Fatalf("query %d: healthy fleet served a partial answer", i)
		}
		if len(qr.Shards) != 2 {
			t.Fatalf("query %d: %d shard outcomes", i, len(qr.Shards))
		}
		if !int64SlicesEqual(qr.Bindings, want) {
			t.Fatalf("query %d: fleet %v, reference %v", i, qr.Bindings, want)
		}
	}

	// Kill shard 1 and require a flagged partial answer.
	nodes[1].Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
		PSIRequest{Query: ptrQueryJSON(QueryToJSON(qs[0])), TimeoutMS: 10000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded fleet: status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResult
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial {
		t.Fatalf("lost shard did not flag the answer partial: %s", body)
	}
	full, err := ref.Bindings(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Bindings) > len(full) {
		t.Fatalf("partial answer larger than the exact one: %d > %d", len(qr.Bindings), len(full))
	}

	// The prober must notice the loss.
	waitUntil(t, "prober to mark shard 1 unhealthy", func() bool {
		sts := coord.ShardStatuses()
		return len(sts) == 2 && sts[0].Healthy && !sts[1].Healthy
	})
}

// A node whose /readyz identity disagrees with its place in the address
// list owns other candidates than the coordinator assumes: its answers
// must not be merged, so the query is flagged partial or fails — never a
// clean 200 with bindings silently missing.
func TestCoordinatorMisplacedShard(t *testing.T) {
	g := graphtest.Random(120, 360, 4, 51)
	qs, err := workload.ExtractQueries(g, 4, 2, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		ids        [][2]int
		misplaced  []bool
		wantStatus int
	}{
		{"same index twice", [][2]int{{2, 0}, {2, 0}}, []bool{false, true}, http.StatusOK},
		{"two nodes of a three-shard fleet", [][2]int{{3, 0}, {3, 1}}, []bool{true, true}, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, _, coord := startFleetOf(t, g, tc.ids, Config{})
			waitUntil(t, "prober to refuse the misplaced shards", func() bool {
				for i, st := range coord.ShardStatuses() {
					if st.Healthy == tc.misplaced[i] || (tc.misplaced[i] && !strings.Contains(st.Err, "-shard-addrs places it")) {
						return false
					}
				}
				return true
			})
			for i, q := range qs {
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
					PSIRequest{Query: ptrQueryJSON(QueryToJSON(q)), TimeoutMS: 10000})
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("query %d: status %d, want %d: %s", i, resp.StatusCode, tc.wantStatus, body)
				}
				if resp.StatusCode != http.StatusOK {
					continue
				}
				var qr QueryResult
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Fatal(err)
				}
				if !qr.Partial || qr.Shards[1].Error == "" || qr.Shards[0].Error != "" {
					t.Fatalf("query %d: misplaced shard's answer was merged: %s", i, body)
				}
			}
		})
	}
}

// A coordinator checks what a shard node sends: a reply whose bindings
// are not strictly ascending node ids, or whose counts carry more work
// rows than the query has nodes, is the shard's error, so the answer is
// flagged partial and no lying binding reaches the client. Shard 1 is a
// fake node that answers /readyz as shard 1 of 2 and /v1/psi with a
// scripted reply.
func TestCoordinatorRejectsLyingShard(t *testing.T) {
	g := graphtest.Random(120, 360, 4, 51)
	qs, err := workload.ExtractQueries(g, 4, 1, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	node, err := shard.NewNode(g, shard.Options{Strategy: shard.LabelHash, Engine: smartpsi.Options{Threads: 1}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	honest := httptest.NewServer(NewServer(node, Config{}).Handler())
	t.Cleanup(honest.Close)
	var reply atomic.Pointer[QueryResult]
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			writeJSON(w, http.StatusOK, map[string][]shard.Status{"shards": {{Index: 1, Of: 2, Healthy: true}}})
			return
		}
		writeJSON(w, http.StatusOK, reply.Load())
	}))
	t.Cleanup(fake.Close)
	coord, err := NewCoordinator(CoordinatorConfig{Addrs: []string{honest.URL, fake.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(NewServer(coord, Config{}).Handler())
	t.Cleanup(ts.Close)

	rows := func(n int) *smartpsi.Counts { return &smartpsi.Counts{Depths: make([]psi.Stats, n)} }
	for _, tc := range []struct {
		name     string
		reply    QueryResult
		rejected bool
	}{
		{"honest", QueryResult{Bindings: []int64{3, 7}, Counts: rows(4)}, false},
		{"negative binding", QueryResult{Bindings: []int64{-4, 2}}, true},
		{"descending bindings", QueryResult{Bindings: []int64{7, 3}}, true},
		{"repeated binding", QueryResult{Bindings: []int64{3, 3}}, true},
		{"binding beyond node ids", QueryResult{Bindings: []int64{1 << 40}}, true},
		{"more work rows than query nodes", QueryResult{Counts: rows(5)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reply.Store(&tc.reply)
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
				PSIRequest{Query: ptrQueryJSON(QueryToJSON(qs[0])), TimeoutMS: 10000})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var qr QueryResult
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if len(qr.Shards) != 2 {
				t.Fatalf("%d shard outcomes", len(qr.Shards))
			}
			rejected := strings.Contains(qr.Shards[1].Error, "bad shard response")
			if qr.Partial != tc.rejected || rejected != tc.rejected || qr.Shards[0].Error != "" {
				t.Fatalf("partial %v, shard outcomes %+v; want the fake's reply rejected: %v", qr.Partial, qr.Shards, tc.rejected)
			}
			for _, u := range qr.Bindings {
				if u < 0 || u >= int64(g.NumNodes()) {
					t.Fatalf("binding %d reached the client", u)
				}
			}
		})
	}
}

// All shards lost is a hard error on the wire, not an empty 200.
func TestCoordinatorAllShardsDown(t *testing.T) {
	g := graphtest.Random(60, 150, 3, 57)
	qs, err := workload.ExtractQueries(g, 3, 1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts, nodes, _ := startFleet(t, g, 2, Config{})
	nodes[0].Close()
	nodes[1].Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
		PSIRequest{Query: ptrQueryJSON(QueryToJSON(qs[0])), TimeoutMS: 5000})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("all shards down: status %d: %s", resp.StatusCode, body)
	}
}

func TestCoordinatorConfigValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("coordinator with no shard addresses accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Addrs: []string{"127.0.0.1:1", " "}}); err == nil {
		t.Fatal("blank shard address accepted")
	}
}

func ptrQueryJSON(qj QueryJSON) *QueryJSON { return &qj }

func int64SlicesEqual(a, b []int64) bool {
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

// countLeaves calls fn with every int and int64 leaf reachable from v
// through structs, arrays and slices, and its path.
func countLeaves(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			countLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			countLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// TestWireCountsRoundTrip: a shard node's answer carries its Result's
// Counts whole, and the coordinator reads them back unchanged. Each int
// and int64 leaf of smartpsi.Counts is set alone and sent through
// resultJSON, the JSON wire and resultFromJSON, so a failure names the
// leaves the round trip loses.
func TestWireCountsRoundTrip(t *testing.T) {
	probe := func() *smartpsi.Result {
		res := &smartpsi.Result{Bindings: []graph.NodeID{2, 5}, UsedML: true}
		res.PlanPicks = make([]int64, 2)
		res.Depths = make([]psi.Stats, 2)
		return res
	}
	var paths []string
	countLeaves(reflect.ValueOf(&probe().Counts).Elem(), "", func(path string, _ reflect.Value) {
		paths = append(paths, path)
	})
	var bad []string
	for _, path := range paths {
		res := probe()
		countLeaves(reflect.ValueOf(&res.Counts).Elem(), "", func(p string, f reflect.Value) {
			if p == path {
				f.SetInt(7)
			}
		})
		raw, err := json.Marshal(resultJSON(&shard.Gather{Res: res}, time.Millisecond, true))
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResult
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		got, err := resultFromJSON(&qr, len(res.Depths))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, res.Counts) {
			bad = append(bad, path)
		}
		if !reflect.DeepEqual(got.Bindings, res.Bindings) || !got.UsedML {
			t.Fatalf("round trip lost bindings or used_ml: %v %v", got.Bindings, got.UsedML)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("the shard wire loses %s", strings.Join(bad, ", "))
	}
	if len(paths) < 52 {
		t.Fatalf("probed only %d Counts leaves; did their types change?", len(paths))
	}
}
