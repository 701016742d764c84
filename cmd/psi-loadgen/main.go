// Command psi-loadgen drives a running psi-serve instance with a
// workload extracted from the same data graph (random-walk sampling,
// Section 5.1 of the paper) and reports client-side latency
// percentiles, status-code counts, and the server's own metric
// snapshot.
//
// Two driving disciplines:
//
//   - closed loop (-mode closed): -concurrency workers each keep one
//     request in flight, back to back. Measures the server's capacity.
//   - open loop (-mode open): requests are launched on a fixed -qps
//     schedule regardless of completions, the way real clients arrive.
//     Measures behaviour under a load the server does not control.
//
// Usage:
//
//	psi-loadgen -addr 127.0.0.1:8080 -graph g.lg -duration 10s
//	psi-loadgen -addr $A -dataset cora -mode open -qps 200 -duration 5s
//	psi-loadgen -addr $A -graph g.lg -requests 500 -verify -json out.json
//	psi-loadgen -addr $A -graph g.lg -concurrency 32 -require-shed
//	psi-loadgen -addr $A -graph g.lg -skew zipf:1.5 -require-hot-shape
//
// The -json document ({"schema":1,...,"metrics":{...}}) carries the
// client-side numbers, with the "metrics" key holding the server's
// /metrics.json snapshot taken after the run.
//
// Self-asserting flags make the binary usable as a test gate without
// JSON parsing: the exit status is non-zero when any unexpected 5xx
// was seen, when -require-shed saw no 429, when -require-partial saw
// no OK response flagged partial (the degraded-fleet signature), when
// fewer than -min-bindings pivot bindings were returned in total, when
// -verify finds a served binding set that disagrees with a direct
// model-free PSI evaluation of the same query (the mismatch line names
// the query's canonical fingerprint for /queryz and /profilez
// cross-reference), or when a post-run check of the server's /alertz
// fails: -require-alert NAME demands the named SLO alert be firing,
// -forbid-alert NAME demands it not be. With -bundle-on-fail PATH, any
// such failure first saves a diagnostic bundle from the server's
// /debugz/bundle to PATH for post-mortem inspection with psi-bundle.
//
// The query mix is uniform round-robin by default; -skew zipf:<s>
// switches to a Zipfian hot-key mix (query 0 hottest) drawn from a
// deterministic per-request hash, and the summary reports the intended
// vs observed hot-key share. With -require-hot-shape the run fails
// unless the server's /queryz workload sketch ranks a dominant hot
// shape first with a nonzero repeat-exact-hit estimate; the hot
// fingerprint is printed for scripts to chase through
// /profilez?fingerprint= and a bundle's workload.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "", "psi-serve address (host:port, required)")
		graphPath   = flag.String("graph", "", "data graph file the server is serving (LG format)")
		dataset     = flag.String("dataset", "", "built-in dataset name (alternative to -graph; must match the server)")
		querySize   = flag.Int("query-size", 4, "nodes per extracted query")
		queries     = flag.Int("queries", 16, "distinct queries to sample and cycle through")
		mode        = flag.String("mode", "closed", "driving discipline: closed or open")
		concurrency = flag.Int("concurrency", 4, "closed-loop workers / open-loop outstanding-request cap")
		qps         = flag.Float64("qps", 100, "open-loop launch rate (requests per second)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load (ignored when -requests > 0)")
		requests    = flag.Int("requests", 0, "total requests to send (0: run for -duration)")
		timeoutMS   = flag.Int64("timeout-ms", 0, "per-request timeout_ms sent to the server (0: server default)")
		batch       = flag.Int("batch", 0, "queries per request via /v1/psi/batch (0: single-query endpoint)")
		seed        = flag.Int64("seed", 1, "workload sampling seed")
		skew        = flag.String("skew", "", "query-mix skew: empty for uniform round-robin, or zipf:<s> for a Zipfian hot-key mix (query 0 hottest, exponent s > 0)")
		jsonPath    = flag.String("json", "", "write the JSON results document to this file")
		verify      = flag.Bool("verify", false, "cross-check every distinct query against a direct model-free PSI evaluation")
		requireShed = flag.Bool("require-shed", false, "fail unless at least one request was load-shed (429)")
		requirePart = flag.Bool("require-partial", false, "fail unless at least one OK response was flagged partial (a sharded fleet answering around a lost shard)")
		requireHot  = flag.Bool("require-hot-shape", false, "fail unless the server's /queryz ranks a dominant hot shape first with a nonzero repeat-hit estimate (use with -skew); prints the hot fingerprint")
		minBindings = flag.Int64("min-bindings", 0, "fail unless OK responses returned at least this many bindings in total")
		requireAl   = flag.String("require-alert", "", "fail unless the named SLO alert is firing at /alertz after the run")
		forbidAl    = flag.String("forbid-alert", "", "fail if the named SLO alert is firing at /alertz after the run")
		bundleOn    = flag.String("bundle-on-fail", "", "when an assertion or verify fails, save a /debugz/bundle diagnostic bundle from the server to this path")
	)
	flag.Parse()
	cfg := config{
		addr: *addr, graphPath: *graphPath, dataset: *dataset,
		querySize: *querySize, queries: *queries,
		mode: *mode, concurrency: *concurrency, qps: *qps,
		duration: *duration, requests: *requests,
		timeoutMS: *timeoutMS, batch: *batch, seed: *seed,
		skew: *skew, jsonPath: *jsonPath, verify: *verify,
		requireShed: *requireShed, requirePartial: *requirePart,
		requireHotShape: *requireHot,
		minBindings:     *minBindings,
		requireAlert:    *requireAl, forbidAlert: *forbidAl,
		bundleOnFail: *bundleOn,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psi-loadgen:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags into run.
type config struct {
	addr               string
	graphPath, dataset string
	querySize, queries int
	mode               string
	concurrency        int
	qps                float64
	duration           time.Duration
	requests           int
	timeoutMS          int64
	batch              int
	seed               int64
	skew               string
	jsonPath           string
	verify             bool
	requireShed        bool
	requirePartial     bool
	requireHotShape    bool
	minBindings        int64
	requireAlert       string
	forbidAlert        string
	bundleOnFail       string

	// zipfCDF is the cumulative pick distribution over the wire queries
	// when -skew is zipf:<s> (query 0 hottest); empty means uniform
	// round-robin. Populated by run from cfg.skew.
	zipfCDF []float64
}

// report is the -json document: loadgen's client-side numbers
// alongside the server's metric snapshot.
type report struct {
	Schema         int          `json:"schema"`
	Concurrency    int          `json:"concurrency"`
	Seed           int64        `json:"seed"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Metrics        obs.Snapshot `json:"metrics"`

	Mode          string  `json:"mode"`
	Skew          string  `json:"skew,omitempty"`
	HotIntended   float64 `json:"hot_share_intended,omitempty"`
	HotObserved   float64 `json:"hot_share_observed,omitempty"`
	Requests      int64   `json:"requests"`
	OK            int64   `json:"ok"`
	Shed          int64   `json:"shed"`
	Deadline      int64   `json:"deadline"`
	ClientErrors  int64   `json:"client_errors"`
	ServerErrors  int64   `json:"server_errors"`
	TransportErrs int64   `json:"transport_errors"`
	Bindings      int64   `json:"bindings"`
	Partials      int64   `json:"partials"`
	AchievedQPS   float64 `json:"achieved_qps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// latencyMetric is the client-side latency histogram's name in the
// loadgen's private registry.
const latencyMetric = "loadgen_latency_seconds"

// stats accumulates request outcomes across driver goroutines. OK
// latencies land in a client-side histogram (obs.LatencyBuckets) so the
// report's percentiles come from the same bucket-interpolation helper
// the server's /queryz quantiles use.
type stats struct {
	reg     *obs.Registry
	latency *obs.Histogram // seconds, OK responses only

	mu        sync.Mutex
	picks     int64 // query picks made (batch items count individually)
	hotPicks  int64 // picks of wire[0], the designated hot key
	requests  int64 // queries sent (batch items count individually)
	ok        int64
	shed      int64 // 429
	deadline  int64 // 504
	clientErr int64 // other 4xx
	serverErr int64 // 5xx other than 504 — never expected
	transport int64 // connection-level failures
	bindings  int64
	partials  int64 // OK responses flagged partial (sharded fleet missing a shard)
}

// newStats builds the accumulator with its private metric registry.
func newStats() *stats {
	reg := obs.NewRegistry()
	return &stats{
		reg:     reg,
		latency: reg.Histogram(latencyMetric, "client-side latency of OK responses", obs.LatencyBuckets),
	}
}

// recordPick notes which wire query a request drew, so the report can
// compare the observed hot-key share against the intended Zipfian one.
func (st *stats) recordPick(idx int) {
	st.mu.Lock()
	st.picks++
	if idx == 0 {
		st.hotPicks++
	}
	st.mu.Unlock()
}

// record files one query outcome under the status code conventions of
// internal/server (429 shed, 504 deadline, other 5xx unexpected).
// partial marks an OK response served with the partial flag.
func (st *stats) record(status int, bindings int, partial bool, elapsed time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.requests++
	switch {
	case status == 0:
		st.transport++
	case status == http.StatusOK:
		st.ok++
		st.bindings += int64(bindings)
		if partial {
			st.partials++
		}
		st.latency.Observe(elapsed.Seconds())
	case status == http.StatusTooManyRequests:
		st.shed++
	case status == http.StatusGatewayTimeout:
		st.deadline++
	case status >= 500:
		st.serverErr++
	default:
		st.clientErr++
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.addr == "" {
		return fmt.Errorf("need -addr (the psi-serve address)")
	}
	if cfg.mode != "closed" && cfg.mode != "open" {
		return fmt.Errorf("-mode must be closed or open, got %q", cfg.mode)
	}
	if cfg.concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1")
	}
	if cfg.requests == 0 && cfg.duration <= 0 {
		return fmt.Errorf("need -requests > 0 or -duration > 0")
	}

	var g *graph.Graph
	var err error
	switch {
	case cfg.graphPath != "":
		g, err = repro.LoadGraph(cfg.graphPath)
	case cfg.dataset != "":
		g, err = repro.GenerateDataset(cfg.dataset)
	default:
		return fmt.Errorf("need -graph or -dataset (to extract the workload from)")
	}
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	qs, err := workload.ExtractQueries(g, cfg.querySize, cfg.queries, rng)
	if err != nil {
		return fmt.Errorf("workload extraction: %w", err)
	}
	wire := make([]server.QueryJSON, len(qs))
	for i, q := range qs {
		wire[i] = server.QueryToJSON(q)
	}
	if cfg.zipfCDF, err = parseSkew(cfg.skew, len(wire)); err != nil {
		return err
	}

	base := "http://" + cfg.addr
	client := &http.Client{Timeout: clientTimeout(cfg.timeoutMS)}

	st := newStats()
	start := time.Now()
	if cfg.mode == "closed" {
		err = driveClosed(cfg, client, base, wire, st)
	} else {
		err = driveOpen(cfg, client, base, wire, st)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	snap, snapErr := fetchMetrics(client, base)
	if snapErr != nil {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: could not fetch /metrics.json: %v\n", snapErr)
	}

	rep := buildReport(cfg, st, elapsed, snap)
	printSummary(out, rep)

	if cfg.jsonPath != "" {
		if err := writeReport(cfg.jsonPath, rep); err != nil {
			return err
		}
	}

	if cfg.verify {
		mismatches, err := verifyQueries(client, base, g, qs, wire)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(out, "verify: %d/%d queries match the model-free reference\n",
			len(qs)-mismatches, len(qs))
		if mismatches > 0 {
			err := fmt.Errorf("verify: %d of %d queries disagree with the reference evaluation", mismatches, len(qs))
			return bundleOnFail(cfg, client, base, err)
		}
	}

	if err := bundleOnFail(cfg, client, base, assertOutcome(cfg, rep, client, base)); err != nil {
		return err
	}
	return bundleOnFail(cfg, client, base, assertHotShape(cfg, client, base, out))
}

// assertHotShape implements -require-hot-shape: the server's /queryz
// must rank a dominant shape first (cost rank 1 AND the count leader,
// holding well above a uniform mix's share) with a nonzero
// repeat-exact-hit estimate. The hot fingerprint is printed so scripts
// can chase it through /profilez?fingerprint= and bundle workload.json.
func assertHotShape(cfg config, client *http.Client, base string, out io.Writer) error {
	if !cfg.requireHotShape {
		return nil
	}
	resp, err := client.Get(base + "/queryz?format=json")
	if err != nil {
		return fmt.Errorf("-require-hot-shape: %w", err)
	}
	var data obs.WorkloadData
	decErr := json.NewDecoder(resp.Body).Decode(&data)
	closeErr := resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("-require-hot-shape: /queryz: HTTP %d (is the server running with -workload-topk > 0?)", resp.StatusCode)
	}
	if decErr != nil {
		return fmt.Errorf("-require-hot-shape: /queryz: %w", decErr)
	}
	if closeErr != nil {
		return closeErr
	}
	if len(data.Shapes) == 0 {
		return fmt.Errorf("-require-hot-shape: /queryz tracked no shapes")
	}
	top := data.Shapes[0]
	for _, s := range data.Shapes[1:] {
		if s.Count > top.Count {
			return fmt.Errorf("-require-hot-shape: cost rank 1 (%s, count %d) is not the count leader (%s, count %d)",
				top.Fingerprint, top.Count, s.Fingerprint, s.Count)
		}
	}
	// A uniform mix over -queries shapes gives each ~1/queries of the
	// traffic; a Zipfian hot key should hold several times that.
	if minShare := 2.0 / float64(cfg.queries); top.CountShare < minShare {
		return fmt.Errorf("-require-hot-shape: top shape %s holds %.1f%% of observed queries, want >= %.1f%%",
			top.Fingerprint, top.CountShare*100, minShare*100)
	}
	if top.Totals.RepeatHits == 0 {
		return fmt.Errorf("-require-hot-shape: top shape %s has no repeat exact hits", top.Fingerprint)
	}
	_, _ = fmt.Fprintf(out, "hot shape: %s count=%d share=%.1f%% repeat_hits=%d cache_win=%.1f%%\n",
		top.Fingerprint, top.Count, top.CountShare*100, top.Totals.RepeatHits, data.CacheWin.HitRate*100)
	return nil
}

// bundleOnFail implements -bundle-on-fail: when err is non-nil it pulls
// a diagnostic bundle from the server's /debugz/bundle and saves it to
// the configured path, so the failing run's server state (metrics,
// series, alerts, profiles, goroutine and heap dumps) survives for
// psi-bundle to inspect. Always returns the original err; a bundle
// fetch failure is only a warning — it must not mask the real failure.
func bundleOnFail(cfg config, client *http.Client, base string, err error) error {
	if err == nil || cfg.bundleOnFail == "" {
		return err
	}
	resp, ferr := client.Get(base + "/debugz/bundle")
	if ferr != nil {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: -bundle-on-fail: %v\n", ferr)
		return err
	}
	data, rerr := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: -bundle-on-fail: /debugz/bundle: HTTP %d\n", resp.StatusCode)
		return err
	}
	if rerr != nil || closeErr != nil {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: -bundle-on-fail: reading bundle: %v %v\n", rerr, closeErr)
		return err
	}
	tmp := cfg.bundleOnFail + ".tmp"
	if werr := os.WriteFile(tmp, data, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: -bundle-on-fail: %v\n", werr)
		return err
	}
	if werr := os.Rename(tmp, cfg.bundleOnFail); werr != nil {
		fmt.Fprintf(os.Stderr, "psi-loadgen: warning: -bundle-on-fail: %v\n", werr)
		return err
	}
	fmt.Fprintf(os.Stderr, "psi-loadgen: diagnostic bundle saved to %s (%d bytes); inspect with psi-bundle report\n",
		cfg.bundleOnFail, len(data))
	return err
}

// parseSkew parses -skew: "" means uniform round-robin (nil CDF), and
// "zipf:<s>" yields the cumulative Zipfian pick distribution over n
// queries with exponent s — query 0 is the designated hot key.
func parseSkew(skew string, n int) ([]float64, error) {
	if skew == "" {
		return nil, nil
	}
	var s float64
	if _, err := fmt.Sscanf(skew, "zipf:%g", &s); err != nil || s <= 0 {
		return nil, fmt.Errorf("-skew must be empty or zipf:<s> with s > 0, got %q", skew)
	}
	weights := make([]float64, n)
	total := 0.0
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		total += weights[k]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for k, w := range weights {
		acc += w / total
		cdf[k] = acc
	}
	cdf[n-1] = 1 // guard against float drift at the top
	return cdf, nil
}

// pickQuery maps the i-th request onto a wire query index: uniform
// round-robin without skew, otherwise an inverse-CDF Zipf draw from a
// deterministic per-index hash — every run with the same seed and
// request count replays the same mix, with no shared RNG contention
// across driver goroutines.
func (c config) pickQuery(i, n int) int {
	if len(c.zipfCDF) == 0 {
		return i % n
	}
	u := uniform01(c.seed, uint64(i))
	idx := sort.SearchFloat64s(c.zipfCDF, u)
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// uniform01 is a splitmix64-style hash of (seed, i) mapped to [0, 1).
func uniform01(seed int64, i uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + (i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// clientTimeout picks an HTTP client timeout comfortably above the
// server-side deadline so 504s come from the server, not the client.
func clientTimeout(timeoutMS int64) time.Duration {
	t := 10 * time.Second
	if d := 2 * time.Duration(timeoutMS) * time.Millisecond; d > t {
		t = d
	}
	return t
}

// driveClosed runs cfg.concurrency workers, each keeping exactly one
// request in flight until the budget (count or clock) runs out. One
// counter hands out the request indices 0, 1, 2, … across the workers,
// so every index is sent exactly once whatever the scheduling.
func driveClosed(cfg config, client *http.Client, base string, wire []server.QueryJSON, st *stats) error {
	ctx := context.Background()
	if cfg.requests == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if cfg.requests > 0 && i >= cfg.requests {
					return
				}
				sendOne(cfg, client, base, wire, i, st)
			}
		}()
	}
	wg.Wait()
	return nil
}

// driveOpen launches requests on a fixed schedule. A semaphore caps
// outstanding requests at 4x concurrency so an unresponsive server
// cannot accumulate unbounded goroutines; launches that would exceed
// the cap are recorded as transport failures (the client gave up).
func driveOpen(cfg config, client *http.Client, base string, wire []server.QueryJSON, st *stats) error {
	if cfg.qps <= 0 {
		return fmt.Errorf("-qps must be > 0 in open mode")
	}
	interval := time.Duration(float64(time.Second) / cfg.qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	total := cfg.requests
	if total == 0 {
		total = int(float64(cfg.duration) / float64(interval))
		if total < 1 {
			total = 1
		}
	}
	sem := make(chan struct{}, 4*cfg.concurrency)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		<-ticker.C
		select {
		case sem <- struct{}{}:
		default:
			st.record(0, 0, false, 0) // over the outstanding cap: client-side drop
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sendOne(cfg, client, base, wire, i, st)
		}(i)
	}
	wg.Wait()
	return nil
}

// sendOne issues the i-th request — a single query or a batch slice —
// and files the outcome(s) in st.
func sendOne(cfg config, client *http.Client, base string, wire []server.QueryJSON, i int, st *stats) {
	if cfg.batch > 0 {
		sendBatch(cfg, client, base, wire, i, st)
		return
	}
	idx := cfg.pickQuery(i, len(wire))
	st.recordPick(idx)
	qj := wire[idx]
	body, err := json.Marshal(server.PSIRequest{Query: &qj, TimeoutMS: cfg.timeoutMS})
	if err != nil {
		st.record(0, 0, false, 0)
		return
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/psi", "application/json", bytes.NewReader(body))
	if err != nil {
		st.record(0, 0, false, time.Since(start))
		return
	}
	var res server.QueryResult
	decErr := json.NewDecoder(resp.Body).Decode(&res)
	closeErr := resp.Body.Close()
	if resp.StatusCode == http.StatusOK && (decErr != nil || closeErr != nil) {
		st.record(0, 0, false, time.Since(start))
		return
	}
	st.record(resp.StatusCode, len(res.Bindings), res.Partial, time.Since(start))
}

// sendBatch issues one /v1/psi/batch request of cfg.batch queries and
// files each item's embedded status individually.
func sendBatch(cfg config, client *http.Client, base string, wire []server.QueryJSON, i int, st *stats) {
	req := server.BatchRequest{TimeoutMS: cfg.timeoutMS}
	for j := 0; j < cfg.batch; j++ {
		idx := cfg.pickQuery(i*cfg.batch+j, len(wire))
		st.recordPick(idx)
		req.Queries = append(req.Queries, wire[idx])
	}
	body, err := json.Marshal(req)
	if err != nil {
		st.record(0, 0, false, 0)
		return
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/psi/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		st.record(0, 0, false, time.Since(start))
		return
	}
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		closeErr := resp.Body.Close()
		_ = closeErr
		for j := 0; j < cfg.batch; j++ {
			st.record(resp.StatusCode, 0, false, elapsed)
		}
		return
	}
	var br server.BatchResponse
	decErr := json.NewDecoder(resp.Body).Decode(&br)
	closeErr := resp.Body.Close()
	if decErr != nil || closeErr != nil {
		st.record(0, 0, false, elapsed)
		return
	}
	for _, item := range br.Results {
		n := 0
		partial := false
		if item.Result != nil {
			n = len(item.Result.Bindings)
			partial = item.Result.Partial
		}
		st.record(item.Status, n, partial, elapsed)
	}
}

// fetchMetrics pulls the server's post-run metric snapshot.
func fetchMetrics(client *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(base + "/metrics.json")
	if err != nil {
		return snap, err
	}
	decErr := json.NewDecoder(resp.Body).Decode(&snap)
	closeErr := resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics.json: HTTP %d", resp.StatusCode)
	}
	if decErr != nil {
		return snap, decErr
	}
	return snap, closeErr
}

// verifyQueries re-runs each distinct query once with a generous
// timeout and compares the served bindings against a direct
// pessimistic-only PSI evaluation (server.Reference). Returns the
// number of mismatching queries.
func verifyQueries(client *http.Client, base string, g *graph.Graph, qs []graph.Query, wire []server.QueryJSON) (int, error) {
	ref, err := server.NewReference(g)
	if err != nil {
		return 0, err
	}
	mismatches := 0
	for i := range qs {
		want, err := ref.Bindings(qs[i])
		if err != nil {
			return 0, fmt.Errorf("verify: reference on query %d: %w", i, err)
		}
		body, err := json.Marshal(server.PSIRequest{Query: &wire[i], TimeoutMS: 30_000})
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(base+"/v1/psi", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("verify: query %d: %w", i, err)
		}
		var res server.QueryResult
		decErr := json.NewDecoder(resp.Body).Decode(&res)
		closeErr := resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("verify: query %d: HTTP %d", i, resp.StatusCode)
		}
		if decErr != nil {
			return 0, fmt.Errorf("verify: query %d: %w", i, decErr)
		}
		if closeErr != nil {
			return 0, closeErr
		}
		if !equalInt64s(res.Bindings, want) {
			// The fingerprint names the query's canonical shape, so a
			// mismatch can be chased through /queryz, /profilez
			// ?fingerprint= and a bundle's workload.json without having to
			// reproduce the loadgen's sampling seed.
			fmt.Fprintf(os.Stderr, "psi-loadgen: verify mismatch on query %d (fingerprint %s): served %v, reference %v\n",
				i, fsm.PivotFingerprint(qs[i], 0).String(), res.Bindings, want)
			mismatches++
		}
	}
	return mismatches, nil
}

func equalInt64s(a, b []int64) bool {
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

// buildReport assembles the results document.
func buildReport(cfg config, st *stats, elapsed time.Duration, snap obs.Snapshot) *report {
	st.mu.Lock()
	defer st.mu.Unlock()
	rep := &report{
		Schema:         2,
		Concurrency:    cfg.concurrency,
		Seed:           cfg.seed,
		ElapsedSeconds: elapsed.Seconds(),
		Metrics:        snap,
		Mode:           cfg.mode,
		Skew:           cfg.skew,
		Requests:       st.requests,
		OK:             st.ok,
		Shed:           st.shed,
		Deadline:       st.deadline,
		ClientErrors:   st.clientErr,
		ServerErrors:   st.serverErr,
		TransportErrs:  st.transport,
		Bindings:       st.bindings,
		Partials:       st.partials,
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(st.requests) / elapsed.Seconds()
	}
	if len(cfg.zipfCDF) > 0 {
		rep.HotIntended = cfg.zipfCDF[0]
		if st.picks > 0 {
			rep.HotObserved = float64(st.hotPicks) / float64(st.picks)
		}
	}
	h := st.reg.Snapshot().Histograms[latencyMetric]
	rep.P50MS = quantileMS(h, 0.50)
	rep.P95MS = quantileMS(h, 0.95)
	rep.P99MS = quantileMS(h, 0.99)
	return rep
}

// quantileMS estimates the q-th latency quantile in milliseconds from
// the client-side histogram via obs.HistogramQuantile (the same
// bucket-interpolation the server's /queryz uses); 0 for an empty
// histogram.
func quantileMS(h obs.HistogramSnapshot, q float64) float64 {
	v, ok := obs.HistogramQuantile(h, q)
	if !ok {
		return 0
	}
	return v * 1000
}

// printSummary writes the human-readable run summary. Write errors on
// the summary stream are not actionable and are discarded.
func printSummary(out io.Writer, rep *report) {
	_, _ = fmt.Fprintf(out, "mode=%s requests=%d elapsed=%.2fs achieved=%.1f qps\n",
		rep.Mode, rep.Requests, rep.ElapsedSeconds, rep.AchievedQPS)
	_, _ = fmt.Fprintf(out, "ok=%d shed(429)=%d deadline(504)=%d client-4xx=%d server-5xx=%d transport=%d\n",
		rep.OK, rep.Shed, rep.Deadline, rep.ClientErrors, rep.ServerErrors, rep.TransportErrs)
	_, _ = fmt.Fprintf(out, "bindings=%d latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rep.Bindings, rep.P50MS, rep.P95MS, rep.P99MS)
	if rep.Partials > 0 {
		_, _ = fmt.Fprintf(out, "partial=%d OK responses were flagged partial (a shard's answer is missing)\n",
			rep.Partials)
	}
	if rep.Skew != "" {
		_, _ = fmt.Fprintf(out, "skew=%s hot-key share intended=%.1f%% observed=%.1f%%\n",
			rep.Skew, rep.HotIntended*100, rep.HotObserved*100)
	}
}

// writeReport writes the JSON document atomically next to its final
// path so concurrent readers never see a truncated file.
func writeReport(path string, rep *report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// assertOutcome enforces the self-asserting flags and the always-on
// "no unexpected 5xx" rule.
func assertOutcome(cfg config, rep *report, client *http.Client, base string) error {
	if rep.ServerErrors > 0 {
		return fmt.Errorf("%d unexpected 5xx responses (500/502/503 are never expected from a healthy server)", rep.ServerErrors)
	}
	if cfg.requireShed && rep.Shed == 0 {
		return fmt.Errorf("-require-shed: no request was load-shed (ok=%d, total=%d)", rep.OK, rep.Requests)
	}
	if cfg.requirePartial && rep.Partials == 0 {
		return fmt.Errorf("-require-partial: no OK response carried the partial flag (ok=%d; is a shard actually down?)", rep.OK)
	}
	if rep.Bindings < cfg.minBindings {
		return fmt.Errorf("-min-bindings: got %d bindings, need at least %d", rep.Bindings, cfg.minBindings)
	}
	if cfg.requireAlert != "" || cfg.forbidAlert != "" {
		alerts, err := fetchAlerts(client, base)
		if err != nil {
			return fmt.Errorf("alert assertion: %w", err)
		}
		if cfg.requireAlert != "" {
			state, ok := alerts[cfg.requireAlert]
			if !ok {
				return fmt.Errorf("-require-alert: no objective named %q at /alertz", cfg.requireAlert)
			}
			if state != "firing" {
				return fmt.Errorf("-require-alert: alert %q is %q, want firing", cfg.requireAlert, state)
			}
		}
		if cfg.forbidAlert != "" {
			if state, ok := alerts[cfg.forbidAlert]; ok && state == "firing" {
				return fmt.Errorf("-forbid-alert: alert %q is firing", cfg.forbidAlert)
			}
		}
	}
	return nil
}

// fetchAlerts pulls /alertz and maps objective name -> state.
func fetchAlerts(client *http.Client, base string) (map[string]string, error) {
	resp, err := client.Get(base + "/alertz?format=json")
	if err != nil {
		return nil, err
	}
	var data obs.AlertsData
	decErr := json.NewDecoder(resp.Body).Decode(&data)
	closeErr := resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/alertz: HTTP %d (is the server running with -sample-interval > 0 and an SLO objective?)", resp.StatusCode)
	}
	if decErr != nil {
		return nil, decErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	out := make(map[string]string, len(data.Alerts))
	for _, a := range data.Alerts {
		out[a.Name] = a.State
	}
	return out, nil
}
