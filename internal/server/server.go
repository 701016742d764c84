// Package server is the long-lived serving path for the SmartPSI
// executor: a stdlib-only HTTP/JSON query service (cmd/psi-serve) that
// loads one data graph — signatures built once, prediction machinery
// warm — and answers PSI queries over it with production guardrails.
//
// Routes:
//
//	POST /v1/psi        one pivoted query -> its pivot bindings
//	POST /v1/psi/batch  up to MaxBatch queries scheduled across the
//	                    bounded worker pool under one shared deadline
//	GET  /healthz       liveness: 200 as long as the process serves
//	GET  /readyz        readiness: 200 when accepting work, 503 draining
//	(everything else)   the internal/obs debug mux: /metrics,
//	                    /metrics.json, /profilez, /modelz, /alertz,
//	                    /queryz, /debugz/bundle, /debug/pprof
//	                    (403 unless Config.ExposePprof) — see
//	                    OPERATIONS.md
//
// Every query, single or batched, passes the same guardrail pipeline —
// one function, serveQuery, behind both routes:
//
//	decode/validate -> fingerprint -> admission -> deadline-bounded,
//	panic-safe evaluation -> observe -> classify -> encode
//
// Admission control is a counting semaphore of Workers slots fronted by
// a bounded wait queue of QueueDepth entries; when the queue is full the
// query is shed immediately with 429 and a Retry-After hint, which keeps
// tail latency bounded under overload instead of letting the queue grow
// without bound. The per-request deadline (timeout_ms, clamped to
// MaxTimeout) covers the admission wait and is propagated into the
// preemptive executor's global budget (Evaluator.EvaluateTagged), so a
// deadline doesn't just abandon the response — it stops the evaluation
// itself (504). A panic while evaluating one request is recovered into a
// 500 for that request only. Drain flips readiness, rejects new work
// with 503, and waits for in-flight queries to finish, so a SIGTERM
// under an orchestrator loses no accepted work.
//
// Requests are correlated end to end: the server accepts or mints an
// X-Request-ID, echoes it on the response, logs it in the structured
// access log, and threads it into the evaluator's execution profile, so
// one served query can be followed from the log line to
// /profilez?request_id= (its per-query record, with the model-β tally
// its training scored).
//
// The server publishes its own metric family (server_* in internal/obs:
// queue depth, in-flight, shed/drain/panic/deadline counters, per-route
// latency histograms) and, because collection is enabled in a serving
// process, every query feeds the /profilez flight recorder and the
// /modelz decision telemetry exactly as the one-shot CLIs do.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

// Evaluator is the query-evaluation dependency of the server:
// *smartpsi.Engine in production, fakes in the tests. EvaluateTagged
// must honor the deadline by aborting with psi.ErrDeadline (wrapped or
// not) and must be safe for concurrent calls. It receives the serving
// request ID and the shape fingerprint the server computed at admission
// ("" when workload analytics is off), so the profile carries the same
// keys the access log and /queryz group by.
type Evaluator interface {
	EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error)
}

// scatterEvaluator is the sharded-serving extension: evaluators that
// fan a query out across shards (shard.Cluster in-process, Coordinator
// over HTTP) return the full Gather so the partial-result flag and
// per-shard outcomes reach the wire.
type scatterEvaluator interface {
	EvaluateScatter(q graph.Query, deadline time.Time, requestID, fingerprint string) (*shard.Gather, error)
}

// shardStatusProvider is the optional extension surfacing per-shard
// health rows in /readyz (shard.Cluster, shard.Node and Coordinator).
type shardStatusProvider interface {
	ShardStatuses() []shard.Status
}

var (
	_ Evaluator        = (*smartpsi.Engine)(nil)
	_ Evaluator        = (*shard.Node)(nil)
	_ scatterEvaluator = (*shard.Cluster)(nil)
	_ Evaluator        = (*shard.Cluster)(nil)
)

// evalFunc is the one shape every evaluator is called through, resolved
// once by NewServer: a result plus its gather. A lone engine is a gather
// with no shard outcomes.
type evalFunc func(q graph.Query, deadline time.Time, requestID, fingerprint string) (*shard.Gather, error)

// resolveEvaluator calls a scatter evaluator for its gather and wraps
// any other evaluator's result in a gather of its own.
func resolveEvaluator(eval Evaluator) evalFunc {
	if ev, ok := eval.(scatterEvaluator); ok {
		return ev.EvaluateScatter
	}
	return func(q graph.Query, deadline time.Time, requestID, fingerprint string) (*shard.Gather, error) {
		res, err := eval.EvaluateTagged(q, deadline, requestID, fingerprint)
		if err != nil {
			return nil, err
		}
		return &shard.Gather{Res: res}, nil
	}
}

// Config tunes the server's guardrails. The zero value gives sensible
// defaults for a small deployment.
type Config struct {
	// Workers is the number of queries evaluated concurrently (the
	// admission semaphore's capacity). Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission wait queue; a query arriving with
	// the queue full is shed with 429. Default 64. Zero is valid only
	// via ShedImmediately (the zero value means "default").
	QueueDepth int
	// ShedImmediately forces QueueDepth 0: any query that cannot start
	// at once is shed. Overload tests and strict-latency deployments.
	ShedImmediately bool
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default 30s.
	MaxTimeout time.Duration
	// MaxBatch bounds queries per /v1/psi/batch request. Default 64.
	MaxBatch int
	// MaxQueryNodes bounds the size of one query graph. Default 32.
	MaxQueryNodes int
	// RetryAfter is the static hint sent with 429/503 responses when no
	// Sampler is wired (or before it holds samples). Default 1s, rounded
	// up to whole seconds on the wire.
	RetryAfter time.Duration
	// Sampler, when non-nil, is the obs time-series sampler: it replaces
	// the static RetryAfter hint with an estimate from the queue-drain
	// rate it samples.
	Sampler *obs.Sampler
	// Alerts, when non-nil, mounts /alertz on the debug mux.
	Alerts *obs.SLOSet
	// Log, when non-nil, receives one structured access-log line per
	// /v1 request (with its request ID) plus one line per rejected or
	// failed request.
	Log *slog.Logger
	// Bundler, when non-nil, mounts /debugz/bundle on the debug mux and
	// (when armed with a bundle directory) auto-captures a diagnostic
	// bundle whenever an SLO objective starts firing.
	Bundler *obs.Bundler
	// Workload, when non-nil, arms workload analytics: every /v1 query
	// is canonically fingerprinted at admission, folded into this top-K
	// sketch, and /queryz is mounted on the debug mux. Nil keeps the
	// serving path fingerprint-free (the nil-sketch fast path).
	Workload *obs.Workload
	// ExposePprof mounts /debug/pprof on the serving listener. Default
	// false: the serving port answers pprof with 403, because the CPU
	// profile and symbol endpoints expose process internals and can
	// degrade the serving path; a dedicated -debug-addr listener keeps
	// the full surface. See OPERATIONS.md.
	ExposePprof bool
}

// maxBodyBytes bounds a request body: 1 MiB holds a full batch of
// MaxBatch queries of MaxQueryNodes nodes many times over.
const maxBodyBytes = 1 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShedImmediately {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxQueryNodes <= 0 {
		c.MaxQueryNodes = 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server owns the admission controller, the route table, and the drain
// state for one Evaluator. Construct with NewServer, serve via Handler,
// stop via Drain.
type Server struct {
	eval     Evaluator
	evaluate evalFunc     // eval's shape, resolved once
	graph    *graph.Graph // eval's data graph when it exposes one, else nil
	counts   bool         // eval is a fleet shard node: answers carry Counts for its coordinator
	cfg      Config
	adm      *admission
	mux      *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight int           // in-flight HTTP requests (not worker slots)
	drained  chan struct{} // closed when draining && inflight == 0
	start    time.Time
}

// NewServer wires a server over eval. The obs debug handler (metrics,
// profiles, model telemetry, pprof) is mounted as the fallback route so
// one port serves both the query API and its introspection.
func NewServer(eval Evaluator, cfg Config) *Server {
	s := &Server{
		eval:     eval,
		evaluate: resolveEvaluator(eval),
		cfg:      cfg.withDefaults(),
		drained:  make(chan struct{}),
		start:    time.Now(),
	}
	if gp, ok := eval.(interface{ Graph() *graph.Graph }); ok {
		s.graph = gp.Graph()
	}
	_, s.counts = eval.(*shard.Node)
	if s.cfg.Sampler != nil {
		s.cfg.Sampler.Keep(rateWindow, "server_queries_total", "server_shed_total")
	}
	s.adm = newAdmission(s.cfg.Workers, s.cfg.QueueDepth)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/psi", s.v1(obs.ServerPSISeconds, s.handlePSI))
	s.mux.HandleFunc("/v1/psi/batch", s.v1(obs.ServerBatchSeconds, s.handleBatch))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/", obs.Handler(obs.Default, obs.DefaultRecorder, obs.HandlerConfig{
		Alerts: s.cfg.Alerts, Bundler: s.cfg.Bundler, Workload: s.cfg.Workload, Pprof: s.cfg.ExposePprof}))
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// requestIDHeader is the correlation header: an incoming value is
// accepted (trimmed, length-capped), otherwise a fresh ID is generated.
// The resolved ID is echoed on the response and threaded through the
// access log and the execution profile.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen caps accepted client-supplied request IDs.
const maxRequestIDLen = 128

type requestIDKey struct{}

// RequestIDFrom returns the request ID resolved by Handler for this
// request's context, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID generates a 16-hex-char random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble;
		// a constant keeps the serving path alive.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// resolveRequestID accepts the client's X-Request-ID or mints one.
func resolveRequestID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get(requestIDHeader))
	if id == "" {
		return newRequestID()
	}
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	return id
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Handler returns the server's routes wrapped in request correlation
// (accept or generate an X-Request-ID, echo it, stash it in the
// context), a structured access log, and request-scoped panic
// recovery: a panic anywhere below turns into a 500 for that request
// and a server_panics_total increment, never a crashed process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := resolveRequestID(r)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(requestIDHeader, reqID)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, reqID))
		t0 := time.Now()
		defer s.accessLog(r, reqID, sw, t0)
		defer func() {
			if p := recover(); p != nil {
				obs.ServerPanics.Inc()
				s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
				// Headers may already be out; WriteHeader then is a
				// no-op and the client sees a truncated body.
				writeError(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		r.Body = http.MaxBytesReader(sw, r.Body, maxBodyBytes)
		s.mux.ServeHTTP(sw, r)
	})
}

// accessLog emits one structured line per request — /v1 traffic at
// info, the debug surface at debug (a scraped /metrics should not
// drown the log). It is the server's one access record.
func (s *Server) accessLog(r *http.Request, reqID string, sw *statusWriter, t0 time.Time) {
	if s.cfg.Log == nil {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	level := slog.LevelDebug
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		level = slog.LevelInfo
	}
	s.cfg.Log.Log(r.Context(), level, "request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"duration_ms", float64(time.Since(t0).Nanoseconds())/1e6,
		"request_id", reqID,
	)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Warn(fmt.Sprintf(format, args...))
	}
}

// begin registers one in-flight HTTP request; it fails when the server
// is draining.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// end retires one in-flight HTTP request and completes the drain when
// it was the last.
func (s *Server) end() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		s.closeDrainedLocked()
	}
	s.mu.Unlock()
}

// closeDrainedLocked closes the drained channel exactly once. Caller
// holds mu.
func (s *Server) closeDrainedLocked() {
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admitting new requests (readyz flips to 503, /v1 routes
// reject with 503 + Retry-After) and waits for every in-flight request
// to complete, or for ctx to expire — in which case the remaining
// requests keep running and the error reports how many were abandoned.
// Drain is idempotent; concurrent calls all wait for the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		obs.ServerDraining.Set(1)
		if s.inflight == 0 {
			s.closeDrainedLocked()
		}
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("server: drain expired with %d requests in flight: %w", n, ctx.Err())
	}
}

// deadlineFor resolves a request's timeout_ms into an absolute
// deadline, applying the default and the clamp. The clamp happens in
// milliseconds, before the conversion to a Duration can overflow.
func (s *Server) deadlineFor(timeoutMS int64) (time.Time, error) {
	if timeoutMS < 0 {
		return time.Time{}, badRequest("timeout_ms must be >= 0, got %d", timeoutMS)
	}
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = s.cfg.MaxTimeout
		if timeoutMS <= d.Milliseconds() {
			d = time.Duration(timeoutMS) * time.Millisecond
		}
	}
	return time.Now().Add(d), nil
}

// errPanic marks an evaluator panic recovered by safeEvaluate.
var errPanic = errors.New("server: evaluator panic")

// safeEvaluate runs one evaluation with request-scoped panic recovery:
// a panicking evaluation poisons only its own request. gth is nil
// exactly when err is non-nil. A partial gather counts against the
// availability SLO: the client was answered, but not completely.
func (s *Server) safeEvaluate(q graph.Query, deadline time.Time, requestID, fingerprint string) (gth *shard.Gather, err error) {
	defer func() {
		if p := recover(); p != nil {
			obs.ServerPanics.Inc()
			s.logf("evaluator panic: %v", p)
			gth, err = nil, fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	gth, err = s.evaluate(q, deadline, requestID, fingerprint)
	if err != nil {
		return nil, err
	}
	if gth.Partial {
		obs.ServerPartials.Inc()
		s.logf("partial answer: %d/%d shards responded", len(gth.Outcomes)-lostShards(gth), len(gth.Outcomes))
	}
	return gth, nil
}

// lostShards counts the outcomes that did not answer.
func lostShards(gth *shard.Gather) int {
	n := 0
	for _, o := range gth.Outcomes {
		if !o.OK() {
			n++
		}
	}
	return n
}

// observeQuery folds one terminal query outcome into the workload
// sketch. res may be nil (shed, queued-deadline and error paths).
func (s *Server) observeQuery(q graph.Query, fp fsm.Fingerprint, outcome string, wall time.Duration, res *smartpsi.Result) {
	o := obs.QueryObservation{
		Shape:      fp.Shape,
		Exact:      fp.Exact,
		Approx:     fp.Approx,
		Nodes:      q.G.NumNodes(),
		Edges:      int(q.G.NumEdges()),
		PivotLabel: int(q.G.Label(q.Pivot)),
		Outcome:    outcome,
		Wall:       wall,
	}
	if res != nil {
		o.Example = res.Profile.Name()
		o.Work = res.Work().Recursions
		o.Candidates = int64(res.Candidates)
		o.Bindings = int64(len(res.Bindings))
		o.CacheHits = res.CacheHits
		o.Flips = res.Flips
		o.Fallbacks = res.Fallbacks
		o.ModeMix = res.ModePicks
		o.UsedML = res.UsedML
		o.Funnel = obs.FunnelTotals(psi.Funnel(res.Depths)...)
	}
	s.cfg.Workload.Observe(o)
}

// verdict is how one query's terminal error is answered and accounted:
// the HTTP status and error text it gets on either route, the
// workload-sketch outcome it is folded in as ("" for none: the client is
// gone, nobody was answered), and the server_* counter it raises.
type verdict struct {
	status  int
	msg     string
	outcome string
	counter *obs.Counter
}

// classify is the one error-classification table of the serving path,
// covering admission and evaluation failures alike (err == nil is the
// 200).
func classify(err error) verdict {
	switch {
	case err == nil:
		return verdict{status: http.StatusOK, outcome: obs.WorkloadOutcomeOK}
	case errors.Is(err, errShed):
		// Counted by admission.acquire (server_shed_total).
		return verdict{http.StatusTooManyRequests, "server overloaded, retry later", obs.WorkloadOutcomeShed, nil}
	case errors.Is(err, context.DeadlineExceeded):
		return verdict{http.StatusGatewayTimeout, "deadline exceeded while queued for admission", obs.WorkloadOutcomeDeadline, obs.ServerDeadlineHits}
	case errors.Is(err, context.Canceled):
		// Client disconnected while queued; nobody is listening.
		return verdict{status: http.StatusGatewayTimeout, msg: "request cancelled"}
	case errors.Is(err, psi.ErrDeadline):
		// The executor has already stopped: the evaluator aborts the
		// search itself.
		return verdict{http.StatusGatewayTimeout, "query deadline exceeded", obs.WorkloadOutcomeDeadline, obs.ServerDeadlineHits}
	case errors.Is(err, errPanic):
		// Counted where it was recovered (server_panics_total).
		return verdict{http.StatusInternalServerError, "internal error evaluating query", obs.WorkloadOutcomeError, nil}
	default:
		return verdict{http.StatusInternalServerError, "evaluation failed: " + err.Error(), obs.WorkloadOutcomeError, nil}
	}
}

// serveQuery is the one path a decoded query takes on either route:
// fingerprint -> admission -> panic-safe, deadline-bounded evaluation ->
// workload observation -> classification. The item carries the status
// the query gets standalone. The canonical shape key is computed once,
// here, when workload analytics is armed, and feeds the workload sketch
// and (via EvaluateTagged) the profile. Each query counts once in
// server_queries_total, the denominator of the availability SLO, whose
// bad counters count queries too.
func (s *Server) serveQuery(ctx context.Context, q graph.Query, deadline time.Time) BatchItem {
	obs.ServerQueries.Inc()
	var fp fsm.Fingerprint
	var fingerprint string
	if s.cfg.Workload != nil {
		fp = fsm.PivotFingerprint(q, 0)
		fingerprint = fp.String()
	}
	start := time.Now()
	var gth *shard.Gather
	err := s.adm.acquire(ctx)
	if err == nil {
		defer s.adm.release()
		start = time.Now() // an admitted query's wall time is its evaluation
		gth, err = s.safeEvaluate(q, deadline, RequestIDFrom(ctx), fingerprint)
	}
	v := classify(err)
	if v.counter != nil {
		v.counter.Inc()
	}
	if s.cfg.Workload != nil && v.outcome != "" {
		var res *smartpsi.Result
		if gth != nil {
			res = gth.Res
		}
		s.observeQuery(q, fp, v.outcome, time.Since(start), res)
	}
	if err != nil {
		s.logf("query failed (%d): %v", v.status, err)
		return BatchItem{Status: v.status, Error: v.msg}
	}
	return BatchItem{Status: v.status, Result: resultJSON(gth, time.Since(start), s.counts)}
}

// retryAfterSeconds renders the Retry-After hint, at least 1 second:
// the sampler-derived drain estimate when available, else the static
// configured hint.
func (s *Server) retryAfterSeconds() string {
	if secs, ok := s.drainRetrySeconds(); ok {
		return strconv.Itoa(secs)
	}
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

const rateWindow = 30 * time.Second // trailing window of the drain rate

// drainRetrySeconds estimates how long the current admission queue
// takes to drain at the sampler's windowed served-query rate (queries
// minus sheds), clamped to [1s, 60s]. ok is false without a
// sampler or before it holds two samples in the window — callers fall
// back to the static hint.
func (s *Server) drainRetrySeconds() (int, bool) {
	if s.cfg.Sampler == nil {
		return 0, false
	}
	total, ok := s.cfg.Sampler.CounterRate("server_queries_total", rateWindow)
	if !ok {
		return 0, false
	}
	shed, _ := s.cfg.Sampler.CounterRate("server_shed_total", rateWindow)
	drain := total - shed
	if drain <= 0 {
		return 0, false
	}
	secs := int(math.Ceil((float64(s.adm.queueDepth()) + 1) / drain))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs, true
}

// rejectDraining writes the 503 a draining server sends to new work.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	obs.ServerQueries.Inc()
	obs.ServerDrainRejects.Inc()
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// v1 wraps a query route in the preamble both share: POST only, request
// and latency accounting, and the drain gate.
func (s *Server) v1(latency *obs.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		obs.ServerRequests.Inc()
		t0 := time.Now()
		defer func() { latency.Observe(time.Since(t0).Seconds()) }()
		if !s.begin() {
			s.rejectDraining(w)
			return
		}
		defer s.end()
		h(w, r)
	}
}

// handlePSI serves POST /v1/psi: decode and validate, hand the query to
// serveQuery, and write its item as the response.
func (s *Server) handlePSI(w http.ResponseWriter, r *http.Request) {
	var req PSIRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeRequestError(w, err)
		return
	}
	q, err := s.buildQuery(req.Query, req.QueryLG)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	deadline, err := s.deadlineFor(req.TimeoutMS)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	item := s.serveQuery(ctx, q, deadline)
	if item.Status != http.StatusOK {
		if item.Status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		writeError(w, item.Status, "%s", item.Error)
		return
	}
	writeJSON(w, http.StatusOK, item.Result)
}

// handleBatch serves POST /v1/psi/batch: every query is validated up
// front, then each goes through serveQuery — the same admission
// controller single queries use, so a big batch on a busy server gets
// exactly its fair share of slots and sheds the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeRequestError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		s.writeRequestError(w, badRequest("queries is empty"))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.writeRequestError(w, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("batch has %d queries, server cap is %d", len(req.Queries), s.cfg.MaxBatch)})
		return
	}
	deadline, err := s.deadlineFor(req.TimeoutMS)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	obs.ServerBatchQueries.Add(int64(len(req.Queries)))
	obs.ServerBatchSize.Observe(float64(len(req.Queries)))

	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	items := make([]BatchItem, len(req.Queries))
	var wg sync.WaitGroup
	for i := range req.Queries {
		q, err := s.buildQuery(&req.Queries[i], "")
		if err != nil {
			items[i] = s.requestError(err)
			continue
		}
		wg.Add(1)
		go func(i int, q graph.Query) {
			defer wg.Done()
			items[i] = s.serveQuery(ctx, q, deadline)
		}(i, q)
	}
	wg.Wait()

	resp := BatchResponse{Results: items, ElapsedMS: float64(time.Since(t0).Nanoseconds()) / 1e6}
	for _, it := range items {
		if it.Status == http.StatusOK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: 200 with uptime as long as the process
// can serve HTTP at all (draining included — the process is healthy,
// just not ready).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness: 200 while accepting work, 503 once a
// drain has started. Orchestrators use this to stop routing traffic
// before the pod goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	body := map[string]any{
		"status":      "ready",
		"workers":     s.cfg.Workers,
		"queue_depth": s.adm.queueDepth(),
		"in_flight":   s.adm.inFlight(),
	}
	// Sharded evaluators surface per-shard health rows. A coordinator
	// with a lost shard stays ready — it serves flagged partial answers
	// — but the rows tell the operator (and the fleet smoke test) which
	// shard to chase.
	if sp, ok := s.eval.(shardStatusProvider); ok {
		statuses := sp.ShardStatuses()
		body["shards"] = statuses
		healthy := 0
		for _, st := range statuses {
			if st.Healthy {
				healthy++
			}
		}
		body["shards_healthy"] = healthy
	}
	writeJSON(w, http.StatusOK, body)
}

// requestError maps a pre-admission failure (decode, validation, size
// caps) onto the 4xx item it is answered with.
func (s *Server) requestError(err error) BatchItem {
	obs.ServerBadRequests.Inc()
	s.logf("bad request: %v", err)
	var he *httpError
	if errors.As(err, &he) {
		return BatchItem{Status: he.status, Error: he.msg}
	}
	return BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
}

// writeRequestError answers a whole request with its requestError.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	item := s.requestError(err)
	writeError(w, item.Status, "%s", item.Error)
}
