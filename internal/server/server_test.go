package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// fakeEval is a scriptable Evaluator for guardrail tests: it can block
// until released, honor deadlines, or panic, all without wall-clock
// sleeps in the assertions.
type fakeEval struct {
	mu      sync.Mutex
	calls   int
	block   chan struct{} // when non-nil, evaluation waits here (or for the deadline)
	panicOn bool
	result  *smartpsi.Result
}

func (f *fakeEval) snapshotCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *fakeEval) EvaluateTagged(q graph.Query, deadline time.Time, _, _ string) (*smartpsi.Result, error) {
	f.mu.Lock()
	f.calls++
	block, panics, res := f.block, f.panicOn, f.result
	f.mu.Unlock()
	if panics {
		panic("fakeEval: scripted panic")
	}
	if expired := !deadline.IsZero() && !time.Now().Before(deadline); expired {
		return nil, psi.ErrDeadline // as the engine does on a spent budget
	}
	if block != nil {
		if deadline.IsZero() {
			<-block
		} else {
			timer := time.NewTimer(time.Until(deadline))
			defer timer.Stop()
			select {
			case <-block:
			case <-timer.C:
				return nil, psi.ErrDeadline
			}
		}
	}
	if res != nil {
		return res, nil
	}
	return &smartpsi.Result{Bindings: []graph.NodeID{int32(q.Pivot)}, Counts: smartpsi.Counts{Candidates: 1}}, nil
}

// triangleQuery is a minimal valid wire query: a labeled triangle with
// pivot 0.
func triangleQuery() *QueryJSON {
	return &QueryJSON{
		Nodes: []int64{0, 1, 0},
		Edges: [][]int64{{0, 1}, {1, 2}, {0, 2}},
		Pivot: 0,
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	return resp, data
}

func newTestServer(t *testing.T, eval Evaluator, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(eval, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// waitUntil polls cond every millisecond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerSingleQueryOK(t *testing.T) {
	fake := &fakeEval{result: &smartpsi.Result{
		Bindings: []graph.NodeID{3, 7}, Counts: smartpsi.Counts{Candidates: 9}, UsedML: true,
	}}
	_, ts := newTestServer(t, fake, Config{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if want := []int64{3, 7}; len(res.Bindings) != 2 || res.Bindings[0] != want[0] || res.Bindings[1] != want[1] {
		t.Errorf("bindings = %v, want %v", res.Bindings, want)
	}
	if res.Candidates != 9 || !res.UsedML {
		t.Errorf("candidates/used_ml = %d/%v, want 9/true", res.Candidates, res.UsedML)
	}
}

func TestServerQueryLGForm(t *testing.T) {
	fake := &fakeEval{}
	_, ts := newTestServer(t, fake, Config{})
	lg := "v 0 0\nv 1 1\ne 0 1\np 1\n"
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{QueryLG: lg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(res.Bindings) != 1 || res.Bindings[0] != 1 {
		t.Errorf("bindings = %v, want [1] (fake echoes the pivot)", res.Bindings)
	}
}

func TestServerMalformedRequests(t *testing.T) {
	fake := &fakeEval{}
	_, ts := newTestServer(t, fake, Config{MaxQueryNodes: 4, MaxBatch: 2})
	maxTimeout := fmt.Sprintf(`"timeout_ms":%d`, int64(math.MaxInt64))
	oversized := `{"query_lg":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name string
		path string // default /v1/psi
		body string
		want int
	}{
		{name: "empty body", body: ``, want: http.StatusBadRequest},
		{name: "not json", body: `{"query":`, want: http.StatusBadRequest},
		{name: "trailing garbage", body: `{"query":{"nodes":[0],"edges":[],"pivot":0}}{"x":1}`, want: http.StatusBadRequest},
		{name: "no query", body: `{}`, want: http.StatusBadRequest},
		{name: "both forms", body: `{"query":{"nodes":[0],"edges":[],"pivot":0},"query_lg":"v 0 0\np 0\n"}`, want: http.StatusBadRequest},
		{name: "empty nodes", body: `{"query":{"nodes":[],"edges":[],"pivot":0}}`, want: http.StatusBadRequest},
		{name: "negative label", body: `{"query":{"nodes":[-1],"edges":[],"pivot":0}}`, want: http.StatusBadRequest},
		{name: "bad edge arity", body: `{"query":{"nodes":[0,0],"edges":[[0]],"pivot":0}}`, want: http.StatusBadRequest},
		{name: "edge out of range", body: `{"query":{"nodes":[0,0],"edges":[[0,5]],"pivot":0}}`, want: http.StatusBadRequest},
		{name: "pivot out of range", body: `{"query":{"nodes":[0,0],"edges":[[0,1]],"pivot":7}}`, want: http.StatusBadRequest},
		{name: "disconnected", body: `{"query":{"nodes":[0,0,0],"edges":[[0,1]],"pivot":0}}`, want: http.StatusBadRequest},
		{name: "negative timeout", body: `{"query":{"nodes":[0,0],"edges":[[0,1]],"pivot":0},"timeout_ms":-5}`, want: http.StatusBadRequest},
		{name: "too many nodes", body: `{"query":{"nodes":[0,0,0,0,0],"edges":[[0,1],[1,2],[2,3],[3,4]],"pivot":0}}`, want: http.StatusRequestEntityTooLarge},
		{name: "bad lg", body: `{"query_lg":"w 0 0"}`, want: http.StatusBadRequest},
		{name: "body over 1 MiB", body: oversized, want: http.StatusRequestEntityTooLarge},
		{name: "batch body over 1 MiB", path: "/v1/psi/batch", body: oversized, want: http.StatusRequestEntityTooLarge},
		// The longest timeout a client can ask for is clamped to
		// MaxTimeout, not overflowed into a deadline in the past.
		{name: "max timeout", body: `{"query":{"nodes":[0,0],"edges":[[0,1]],"pivot":0},` + maxTimeout + `}`, want: http.StatusOK},
		{name: "max timeout batch", path: "/v1/psi/batch", body: `{"queries":[{"nodes":[0,0],"edges":[[0,1]],"pivot":0}],` + maxTimeout + `}`, want: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/psi"
			}
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, data)
			}
			if tc.want == http.StatusOK {
				// Well-formed after all: the answer (for the batch, its
				// one item) is a normal 200, not an instant 504.
				if strings.Contains(string(data), `"error"`) {
					t.Errorf("body = %s, want a result with no error", data)
				}
				return
			}
			var eb ErrorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body = %q, want JSON with non-empty error", data)
			}
		})
	}
	if got := fake.snapshotCalls(); got != 2 {
		t.Errorf("evaluator saw %d calls, want 2: the max-timeout requests and none of the malformed ones", got)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, &fakeEval{}, Config{})
	for _, path := range []string{"/v1/psi", "/v1/psi/batch"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestServerDeadlineStopsExecutor pins the 504 path: a request whose
// deadline passes mid-evaluation gets 504 and the executor actually
// stops — the fake returns psi.ErrDeadline at the deadline (as
// EvaluateBudget does), and the response must come back promptly
// instead of waiting for the blocked evaluation's release.
func TestServerDeadlineStopsExecutor(t *testing.T) {
	block := make(chan struct{})
	fake := &fakeEval{block: block}
	defer close(block)
	_, ts := newTestServer(t, fake, Config{})

	t0 := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
		PSIRequest{Query: triangleQuery(), TimeoutMS: 50})
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if elapsed > 3*time.Second {
		t.Errorf("504 took %v; the executor did not stop at its deadline", elapsed)
	}
	if got := fake.snapshotCalls(); got != 1 {
		t.Errorf("evaluator calls = %d, want 1", got)
	}
}

// TestServerRealEngineDeadline drives the real smartpsi engine with a
// microscopic budget on a real graph: the request must 504 (or, if the
// machine is fast enough to finish, 200) — never hang, never 500.
func TestServerRealEngineDeadline(t *testing.T) {
	g, q := denseGraphAndQuery(t)
	engine, err := smartpsi.NewEngine(g, smartpsi.Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, ts := newTestServer(t, engine, Config{})
	qj := wireQuery(t, q)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: qj, TimeoutMS: 1})
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 200 or 504 (body %s)", resp.StatusCode, body)
	}
}

// TestServerQueueFullSheds pins the 429 path: Workers=1, QueueDepth=1.
// Request A holds the only slot, request B fills the queue, request C
// must be shed with 429 and a Retry-After header without touching the
// evaluator.
func TestServerQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	fake := &fakeEval{block: block}
	s, ts := newTestServer(t, fake, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute})

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
			statuses[i] = resp.StatusCode
		}(i)
	}
	// Wait until A is evaluating and B is queued, then C must shed.
	waitUntil(t, "slot held and queue occupied", func() bool {
		return s.adm.inFlight() == 1 && s.adm.queueDepth() == 1
	})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 response missing Retry-After header")
	}
	close(block) // release A (and then B)
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d status = %d, want 200", i, st)
		}
	}
	if got := fake.snapshotCalls(); got != 2 {
		t.Errorf("evaluator calls = %d, want 2 (shed request must not evaluate)", got)
	}
}

// TestServerDrain pins graceful drain: in-flight work completes, new
// work is rejected 503, readyz flips, and Drain returns once quiet.
func TestServerDrain(t *testing.T) {
	block := make(chan struct{})
	fake := &fakeEval{block: block}
	s, ts := newTestServer(t, fake, Config{Workers: 2, DefaultTimeout: time.Minute})

	var wg sync.WaitGroup
	var inflightStatus int
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
		inflightStatus = resp.StatusCode
	}()
	waitUntil(t, "request in flight", func() bool { return s.adm.inFlight() == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitUntil(t, "drain started", s.Draining)

	// New work must bounce with 503 + Retry-After.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("503 response missing Retry-After header")
	}
	// Readiness flips while liveness holds.
	rz, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	if err := rz.Body.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", rz.StatusCode)
	}
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if err := hz.Body.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", hz.StatusCode)
	}

	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned (%v) while a request was still in flight", err)
	default:
	}
	close(block)
	wg.Wait()
	if inflightStatus != http.StatusOK {
		t.Errorf("in-flight request finished %d, want 200 (drain must not abort it)", inflightStatus)
	}
	if err := <-drainDone; err != nil {
		t.Errorf("Drain: %v", err)
	}
	// Idempotent: a second drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

func TestServerDrainTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	fake := &fakeEval{block: block}
	s, ts := newTestServer(t, fake, Config{DefaultTimeout: time.Minute})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocked request status = %d", resp.StatusCode)
		}
	}()
	waitUntil(t, "request in flight", func() bool { return s.adm.inFlight() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Errorf("Drain with stuck request returned nil, want deadline error")
	}
}

// TestServerPanicIsolated pins request-scoped panic recovery: a
// panicking evaluation 500s its own request and the server keeps
// serving.
func TestServerPanicIsolated(t *testing.T) {
	fake := &fakeEval{panicOn: true}
	_, ts := newTestServer(t, fake, Config{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	fake.mu.Lock()
	fake.panicOn = false
	fake.mu.Unlock()
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: triangleQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

func TestServerBatch(t *testing.T) {
	fake := &fakeEval{}
	_, ts := newTestServer(t, fake, Config{Workers: 2, MaxBatch: 8})
	req := BatchRequest{Queries: []QueryJSON{
		*triangleQuery(),
		{Nodes: []int64{0}, Edges: nil, Pivot: 0},
		{Nodes: []int64{0, 0, 0}, Edges: [][]int64{{0, 1}}, Pivot: 0}, // disconnected -> 400 item
	}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (body %s)", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	if br.Succeeded != 2 || br.Failed != 1 {
		t.Errorf("succeeded/failed = %d/%d, want 2/1", br.Succeeded, br.Failed)
	}
	if br.Results[0].Status != http.StatusOK || br.Results[0].Result == nil {
		t.Errorf("item 0 = %+v, want 200 with result", br.Results[0])
	}
	if br.Results[2].Status != http.StatusBadRequest || br.Results[2].Error == "" {
		t.Errorf("item 2 = %+v, want 400 with error", br.Results[2])
	}
	if got := fake.snapshotCalls(); got != 2 {
		t.Errorf("evaluator calls = %d, want 2 (invalid item must not evaluate)", got)
	}
}

func TestServerBatchCaps(t *testing.T) {
	_, ts := newTestServer(t, &fakeEval{}, Config{MaxBatch: 2})
	req := BatchRequest{Queries: []QueryJSON{*triangleQuery(), *triangleQuery(), *triangleQuery()}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi/batch", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413 (body %s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/psi/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
}

func TestServerLabelAlphabetRejected(t *testing.T) {
	g, _ := denseGraphAndQuery(t)
	engine, err := smartpsi.NewEngine(g, smartpsi.Options{Seed: 7})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, ts := newTestServer(t, engine, Config{})
	// Label 99 exceeds the data graph's alphabet: client error, not 500.
	qj := &QueryJSON{Nodes: []int64{99, 0}, Edges: [][]int64{{0, 1}}, Pivot: 0}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: qj})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
}

func TestServerHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, &fakeEval{}, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Errorf("%s body %q is not JSON: %v", path, data, err)
		}
	}
}

func TestServerObsEndpointsMounted(t *testing.T) {
	_, ts := newTestServer(t, &fakeEval{}, Config{})
	for _, path := range []string{"/metrics", "/metrics.json", "/profilez", "/modelz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 (obs mux must be mounted)", path, resp.StatusCode)
		}
	}
}

// --- helpers over real graphs ---

// denseGraphAndQuery builds a small but non-trivial labeled graph and
// extracts a size-4 query from it.
func denseGraphAndQuery(t *testing.T) (*graph.Graph, graph.Query) {
	t.Helper()
	const n = 60
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(i % 3))
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 7} {
			j := (i + d) % n
			if !b.HasEdge(graph.NodeID(i), graph.NodeID(j)) {
				if err := b.AddEdge(graph.NodeID(i), graph.NodeID(j)); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	qb := graph.NewBuilder(4, 4)
	qb.AddNode(0)
	qb.AddNode(1)
	qb.AddNode(2)
	qb.AddNode(0)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if err := qb.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	qg, err := qb.Build()
	if err != nil {
		t.Fatalf("Build query: %v", err)
	}
	q, err := graph.NewQuery(qg, 0)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return g, q
}

// wireQuery converts a graph.Query into its JSON wire form (the
// exported encoder, so the round trip through the decoder is covered).
func wireQuery(t *testing.T, q graph.Query) *QueryJSON {
	t.Helper()
	qj := QueryToJSON(q)
	return &qj
}

// TestServerRequestCorrelation walks one request ID through the whole
// pipeline: the client sends X-Request-ID, the server echoes it,
// stamps the structured access log, and files the execution profile
// under it (served by /profilez?request_id=), with the model-β tally of
// the evaluation's training sweep beside it.
func TestServerRequestCorrelation(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.Enable(true)
	obs.DefaultModelStats.Reset()
	t.Cleanup(func() {
		obs.Enable(prevEnabled)
		obs.DefaultModelStats.Reset()
	})

	// Sparse random graph with enough label-1 candidates for the ML
	// path, so the evaluation trains and scores model β.
	const n, m = 300, 900
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(i % 3))
	}
	for b.NumEdges() < m {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	qb := graph.NewBuilder(3, 2)
	qb.AddNode(0)
	qb.AddNode(1)
	qb.AddNode(2)
	if err := qb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := qb.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	q, err := graph.NewQuery(qb.MustBuild(), 1)
	if err != nil {
		t.Fatal(err)
	}

	engine, err := smartpsi.NewEngine(g, smartpsi.Options{Seed: 3, DisablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, engine, Config{Log: logger})

	const reqID = "corr-e2e-0042"
	buf, err := json.Marshal(PSIRequest{Query: wireQuery(t, q), TimeoutMS: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest("POST", ts.URL+"/v1/psi", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-ID", reqID)
	resp, err := ts.Client().Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want %q", got, reqID)
	}

	// 1. Structured access log carries the ID.
	if !strings.Contains(logBuf.String(), `"request_id":"`+reqID+`"`) {
		t.Errorf("access log has no request_id field:\n%s", logBuf.String())
	}

	// 2. The flight recorder serves the profile by request ID.
	presp, err := ts.Client().Get(ts.URL + "/profilez?request_id=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	pbody, err := io.ReadAll(presp.Body)
	if cerr := presp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK || !strings.Contains(string(pbody), reqID) {
		t.Errorf("/profilez?request_id= = %d\n%s", presp.StatusCode, pbody)
	}
	if code := func() int {
		r, err := ts.Client().Get(ts.URL + "/profilez?request_id=no-such-request")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = r.Body.Close() }()
		return r.StatusCode
	}(); code != http.StatusNotFound {
		t.Errorf("/profilez with unknown request_id = %d, want 404", code)
	}

	// 3. The profile a diagnostic bundle's profiles.json holds carries
	// the ID and model β's tally together.
	jresp, err := ts.Client().Get(ts.URL + "/profilez?format=json&request_id=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	var prof obs.ProfileData
	decErr := json.NewDecoder(jresp.Body).Decode(&prof)
	if cerr := jresp.Body.Close(); decErr == nil {
		decErr = cerr
	}
	if decErr != nil {
		t.Fatal(decErr)
	}
	if prof.RequestID != reqID || prof.BetaScored == 0 || prof.BetaTop1 > prof.BetaScored {
		t.Errorf("profile request %q β %d/%d, want %q with a scored β tally",
			prof.RequestID, prof.BetaTop1, prof.BetaScored, reqID)
	}

	// 4. A request without the header gets a server-minted ID.
	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/psi", PSIRequest{Query: wireQuery(t, q), TimeoutMS: 30_000})
	if got := resp2.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}
}

// TestServerDynamicRetryAfter pins the sampler-derived Retry-After:
// with a windowed served-query rate the hint reflects queue-drain
// time; without one it falls back to the static config.
func TestServerDynamicRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	req := reg.Counter("server_queries_total", "queries")
	sampler := obs.NewSampler(reg, time.Second)

	s := NewServer(&fakeEval{}, Config{RetryAfter: 7 * time.Second, Sampler: sampler})

	// No samples yet: static fallback.
	if got := s.retryAfterSeconds(); got != "7" {
		t.Errorf("fallback Retry-After = %s, want 7", got)
	}

	// 10 queries/s served, 0 queued: ceil(1/10) -> 1s.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sampler.SampleAt(base)
	req.Add(100)
	sampler.SampleAt(base.Add(10 * time.Second))
	if got := s.retryAfterSeconds(); got != "1" {
		t.Errorf("drain-rate Retry-After = %s, want 1", got)
	}

	// All traffic shed inside the window: no drain capacity, so the
	// dynamic estimate declines and the static fallback applies.
	reg2 := obs.NewRegistry()
	req2 := reg2.Counter("server_queries_total", "queries")
	shed2 := reg2.Counter("server_shed_total", "sheds")
	sampler2 := obs.NewSampler(reg2, time.Second)
	sShed := NewServer(&fakeEval{}, Config{RetryAfter: 5 * time.Second, Sampler: sampler2})
	sampler2.SampleAt(base)
	req2.Add(50)
	shed2.Add(50)
	sampler2.SampleAt(base.Add(10 * time.Second))
	if secs, ok := sShed.drainRetrySeconds(); ok {
		t.Errorf("drainRetrySeconds with zero served rate = %d, want fallback", secs)
	}
	if got := sShed.retryAfterSeconds(); got != "5" {
		t.Errorf("all-shed Retry-After = %s, want static 5", got)
	}

	// No sampler at all: static fallback.
	s2 := NewServer(&fakeEval{}, Config{RetryAfter: 3 * time.Second})
	if got := s2.retryAfterSeconds(); got != "3" {
		t.Errorf("no-sampler Retry-After = %s, want 3", got)
	}
}

// TestServerAvailabilityCountsQueries pins the availability SLO's units:
// a batch of 8 queries with 3 shed burns 3/8 of its queries, not 3 per
// HTTP request, because the numerator and the denominator both count
// queries.
func TestServerAvailabilityCountsQueries(t *testing.T) {
	const n, shed = 8, 3
	block := make(chan struct{})
	s, ts := newTestServer(t, &fakeEval{block: block},
		Config{Workers: n - shed, ShedImmediately: true, MaxBatch: n, DefaultTimeout: time.Minute})
	sampler := obs.NewSampler(obs.Default, time.Second)
	set := obs.NewSLOSet(sampler, []obs.Objective{
		obs.AvailabilityObjective(0.5, time.Minute, time.Minute, 1, 0),
	})
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sampler.SampleAt(base)
	shedBefore := obs.ServerShed.Value()

	req := BatchRequest{Queries: make([]QueryJSON, n)}
	for i := range req.Queries {
		req.Queries[i] = *triangleQuery()
	}
	// Every slot is held until released, so exactly the rest shed.
	go func() {
		for give := time.Now().Add(5 * time.Second); time.Now().Before(give); time.Sleep(time.Millisecond) {
			if s.adm.inFlight() == n-shed && obs.ServerShed.Value()-shedBefore == shed {
				break
			}
		}
		close(block)
	}()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi/batch", req)
	var br BatchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil {
		t.Fatalf("batch = %d\n%s", resp.StatusCode, body)
	}
	if br.Succeeded != n-shed || br.Failed != shed {
		t.Fatalf("succeeded/failed = %d/%d, want %d/%d", br.Succeeded, br.Failed, n-shed, shed)
	}
	sampler.SampleAt(base.Add(time.Second))

	a := set.Status()[0]
	// Error budget 0.5: a bad ratio of 3/8 burns at 0.75.
	if want := float64(shed) / n / 0.5; !a.FastWindowSampled || math.Abs(a.FastBurn-want) > 1e-9 {
		t.Errorf("availability fast burn = %v (sampled %v), want %v: %d shed of %d queries",
			a.FastBurn, a.FastWindowSampled, want, shed, n)
	}
	if got := a.BadFast["server_shed_total"]; got != shed {
		t.Errorf("availability breakdown = %v, want server_shed_total %d", a.BadFast, shed)
	}
}
