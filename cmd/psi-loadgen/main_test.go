package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	repro "repro"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/server"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

const testGraph = `t # 0
v 0 A
v 1 B
v 2 C
v 3 C
v 4 B
v 5 A
e 0 1
e 0 2
e 0 3
e 0 4
e 1 2
e 1 3
e 4 2
e 4 3
e 5 4
e 5 2
`

// writeGraph materialises the shared test graph as an LG file.
func writeGraph(t *testing.T) string {
	t.Helper()
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	return gp
}

// startServer boots a real SmartPSI server over the test graph and
// returns its host:port.
func startServer(t *testing.T, scfg server.Config) string {
	t.Helper()
	g, err := graph.ParseLG(strings.NewReader(testGraph))
	if err != nil {
		t.Fatalf("ParseLG: %v", err)
	}
	engine, err := smartpsi.NewEngine(g, smartpsi.Options{Threads: 1, Seed: 42})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv := server.NewServer(engine, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// baseConfig returns a loadgen config pointed at addr with small,
// fast-by-default knobs.
func baseConfig(addr, graphPath string) config {
	return config{
		addr:        addr,
		graphPath:   graphPath,
		querySize:   3,
		queries:     4,
		mode:        "closed",
		concurrency: 4,
		qps:         200,
		requests:    24,
		timeoutMS:   2000,
		seed:        7,
	}
}

// TestClosedLoop drives a real server closed-loop with -verify and
// -min-bindings and checks the -json document round-trips.
func TestClosedLoop(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 4})
	cfg := baseConfig(addr, writeGraph(t))
	cfg.verify = true
	cfg.minBindings = 1
	cfg.jsonPath = filepath.Join(t.TempDir(), "out.json")

	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok=24") {
		t.Errorf("summary does not report 24 OK requests:\n%s", out.String())
	}

	raw, err := os.ReadFile(cfg.jsonPath)
	if err != nil {
		t.Fatalf("read -json: %v", err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decode -json: %v", err)
	}
	if rep.Schema != 1 || rep.Experiment != "loadgen" {
		t.Errorf("report header = schema %d experiment %q", rep.Schema, rep.Experiment)
	}
	if rep.OK != 24 || rep.ServerErrors != 0 {
		t.Errorf("report counts: ok=%d server5xx=%d", rep.OK, rep.ServerErrors)
	}
	if rep.Bindings < 1 {
		t.Errorf("report bindings = %d, want >= 1", rep.Bindings)
	}
	// The embedded snapshot is the server's, so it must have seen our
	// requests.
	if rep.Metrics.Counters["server_requests_total"] == 0 {
		t.Errorf("embedded server snapshot has no requests: %+v", rep.Metrics.Counters)
	}
}

// TestOpenLoopAndBatch covers the open-loop pacer and the batch
// endpoint path.
func TestOpenLoopAndBatch(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 4})
	gp := writeGraph(t)

	cfg := baseConfig(addr, gp)
	cfg.mode = "open"
	cfg.qps = 500
	cfg.requests = 20
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("open-loop run: %v\noutput:\n%s", err, out.String())
	}

	cfg = baseConfig(addr, gp)
	cfg.batch = 4
	cfg.requests = 6 // 6 batches x 4 queries = 24 query outcomes
	out.Reset()
	if err := run(cfg, &out); err != nil {
		t.Fatalf("batch run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok=24") {
		t.Errorf("batch summary does not report 24 OK queries:\n%s", out.String())
	}
}

// slowEval is a server.Evaluator that takes a fixed wall time per
// query, so a Workers=1/queue=0 server must shed concurrent load.
type slowEval struct{ delay time.Duration }

func (e *slowEval) EvaluateTagged(graph.Query, time.Time, string, string) (*smartpsi.Result, error) {
	time.Sleep(e.delay)
	return &smartpsi.Result{Bindings: []graph.NodeID{0}}, nil
}

// TestRequireShed drives an overloaded shed-immediately server and
// checks both that -require-shed passes when 429s occur and that the
// in-flight queries still succeed.
func TestRequireShed(t *testing.T) {
	srv := server.NewServer(&slowEval{delay: 20 * time.Millisecond}, server.Config{
		Workers:         1,
		QueueDepth:      0,
		ShedImmediately: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := baseConfig(ts.Listener.Addr().String(), writeGraph(t))
	cfg.concurrency = 8
	cfg.requests = 40
	cfg.requireShed = true
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shed(429)=") {
		t.Errorf("summary missing shed count:\n%s", out.String())
	}
}

// TestRequireShedFailsWhenUnloaded pins the self-asserting failure: a
// server with headroom never sheds, so -require-shed must error.
func TestRequireShedFailsWhenUnloaded(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 8, QueueDepth: 64})
	cfg := baseConfig(addr, writeGraph(t))
	cfg.requests = 8
	cfg.requireShed = true
	var out bytes.Buffer
	if err := run(cfg, &out); err == nil {
		t.Fatal("-require-shed passed with zero sheds")
	}
}

// TestConfigErrors pins the clean failure modes of bad flag
// combinations.
func TestConfigErrors(t *testing.T) {
	gp := writeGraph(t)
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"missing addr", func(c *config) { c.addr = "" }},
		{"bad mode", func(c *config) { c.mode = "sideways" }},
		{"no graph", func(c *config) { c.graphPath = "" }},
		{"zero concurrency", func(c *config) { c.concurrency = 0 }},
		{"no budget", func(c *config) { c.requests = 0; c.duration = 0 }},
		{"bad qps", func(c *config) { c.mode = "open"; c.qps = 0 }},
		{"missing graph file", func(c *config) { c.graphPath = filepath.Join(t.TempDir(), "nope.lg") }},
	}
	for _, tc := range cases {
		cfg := baseConfig("127.0.0.1:1", gp)
		tc.mut(&cfg)
		var out bytes.Buffer
		if err := run(cfg, &out); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestQuantileMS pins the histogram-interpolated percentile helper on
// a known 1..10ms sample against hand-computed bucket interpolation
// over obs.LatencyBuckets (1ms lands in the 1ms bucket; 2ms in 2.5ms;
// 3-5ms in 5ms; 6-10ms in 10ms).
func TestQuantileMS(t *testing.T) {
	st := newStats()
	if got := quantileMS(st.reg.Snapshot().Histograms[latencyMetric], 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	for ms := 1; ms <= 10; ms++ {
		st.latency.Observe(float64(ms) / 1000)
	}
	h := st.reg.Snapshot().Histograms[latencyMetric]
	// rank 5 closes the 5ms bucket exactly: 2.5 + 2.5*(5-2)/3 = 5.
	if got := quantileMS(h, 0.5); !closeTo(got, 5) {
		t.Errorf("p50 = %v ms, want 5", got)
	}
	// rank 9.9 interpolates the 10ms bucket: 5 + 5*(9.9-5)/5 = 9.9.
	if got := quantileMS(h, 0.99); !closeTo(got, 9.9) {
		t.Errorf("p99 = %v ms, want 9.9", got)
	}
}

func closeTo(got, want float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff < 1e-9
}

// recordArrivals serves /v1/psi with an empty answer and counts each
// wire query that arrives, keyed by its JSON encoding.
func recordArrivals(t *testing.T) (addr string, arrivals func() map[string]int) {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[string]int)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/psi", func(w http.ResponseWriter, r *http.Request) {
		var req server.PSIRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Query == nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		key, _ := json.Marshal(req.Query)
		mu.Lock()
		seen[string(key)]++
		mu.Unlock()
		_, _ = w.Write([]byte(`{"bindings":[]}`))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String(), func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(seen)
	}
}

// TestClosedLoopSendsEachIndexOnce: the closed loop's workers share one
// request counter, so with N requests over N queries every query
// arrives exactly once, and a Zipfian mix sends the same multiset of
// queries at any concurrency.
func TestClosedLoopSendsEachIndexOnce(t *testing.T) {
	const n = 60
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := graph.SaveLG(gp, graphtest.Random(300, 900, 4, 11)); err != nil {
		t.Fatal(err)
	}
	g, err := repro.LoadGraph(gp) // the graph as psi-loadgen reads it
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.ExtractQueries(g, 4, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, q := range qs {
		qj := server.QueryToJSON(q)
		key, _ := json.Marshal(&qj)
		want[string(key)]++
	}

	drive := func(concurrency int, skew string) map[string]int {
		addr, arrivals := recordArrivals(t)
		cfg := baseConfig(addr, gp)
		cfg.querySize, cfg.queries, cfg.requests = 4, n, n
		cfg.concurrency, cfg.skew = concurrency, skew
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		return arrivals()
	}

	if got := drive(4, ""); !maps.Equal(got, want) {
		t.Errorf("-concurrency 4 sent %d distinct queries, want each of the %d queries once", len(got), n)
	}
	serial, parallel := drive(1, "zipf:1.1"), drive(4, "zipf:1.1")
	if !maps.Equal(serial, parallel) {
		t.Errorf("-skew zipf:1.1 sent another multiset at -concurrency 4 (%d distinct queries) than at -concurrency 1 (%d)",
			len(parallel), len(serial))
	}
}
