package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// This file is the workload-analytics sketch behind /queryz: every
// served query is canonicalized to a shape fingerprint (the fsm
// package's min-DFS code hashed with the label multiset and pivot
// label; obs only ever sees the resulting hashes, keeping it free of
// graph dependencies) and folded into a bounded-memory Space-Saving
// top-K sketch with per-shape cost aggregates. The sketch answers the
// two fleet-level questions single-query profiles cannot: which query
// shapes dominate cost, and what an answer cache keyed by
// (fingerprint, pivot) would actually win.

// Workload outcome labels, mirroring the serving layer's terminal
// states for one query.
const (
	WorkloadOutcomeOK       = "ok"
	WorkloadOutcomeShed     = "shed"
	WorkloadOutcomeDeadline = "deadline"
	WorkloadOutcomeError    = "error"
)

// QueryObservation is one served query as fed to the workload sketch:
// the canonical hashes plus the per-query cost and outcome facts worth
// aggregating per shape.
type QueryObservation struct {
	// Shape is the canonical shape hash (the /queryz grouping key);
	// Exact additionally pins the pivot orbit, so two observations with
	// equal Exact would — the data graph being static per process —
	// return identical answers. Approx marks budget-exhausted
	// structural-fallback fingerprints.
	Shape  uint64
	Exact  uint64
	Approx bool

	// Example names one concrete query of this shape (e.g. the profile
	// qname) so /queryz rows can be pivoted back to /profilez.
	Example    string
	Nodes      int
	Edges      int
	PivotLabel int

	Outcome    string // WorkloadOutcome*
	Wall       time.Duration
	Work       int64 // evaluator recursions
	Candidates int64
	Bindings   int64
	CacheHits  int64
	Flips      int64
	Fallbacks  int64
	ModeMix    [2]int64 // model-α picks: optimistic, pessimistic
	UsedML     bool
	Funnel     FunnelDepth
}

// ShapeAggregates are the per-shape totals the sketch maintains. The
// reflection coverage test walks this struct's int64 fields (funnel
// included) and fails naming any field the Observe fold misses, so an
// aggregate cannot be added without being wired through.
type ShapeAggregates struct {
	CostNanos       int64       `json:"cost_nanos"`
	Work            int64       `json:"work_recursions"`
	Candidates      int64       `json:"candidates"`
	Bindings        int64       `json:"bindings"`
	CacheHits       int64       `json:"cache_hits"`
	Flips           int64       `json:"flips"`
	Fallbacks       int64       `json:"fallbacks"`
	ModeOptimistic  int64       `json:"mode_optimistic"`
	ModePessimistic int64       `json:"mode_pessimistic"`
	MLRuns          int64       `json:"ml_runs"`
	OK              int64       `json:"ok"`
	Shed            int64       `json:"shed"`
	Deadline        int64       `json:"deadline"`
	Errors          int64       `json:"errors"`
	RepeatHits      int64       `json:"repeat_hits"`
	Funnel          FunnelDepth `json:"funnel"`
}

// fold accumulates one observation (repeat reports whether its exact
// hash was seen before on this entry).
func (a *ShapeAggregates) fold(o QueryObservation, repeat bool) {
	a.CostNanos += o.Wall.Nanoseconds()
	a.Work += o.Work
	a.Candidates += o.Candidates
	a.Bindings += o.Bindings
	a.CacheHits += o.CacheHits
	a.Flips += o.Flips
	a.Fallbacks += o.Fallbacks
	a.ModeOptimistic += o.ModeMix[0]
	a.ModePessimistic += o.ModeMix[1]
	if o.UsedML {
		a.MLRuns++
	}
	switch o.Outcome {
	case WorkloadOutcomeShed:
		a.Shed++
	case WorkloadOutcomeDeadline:
		a.Deadline++
	case WorkloadOutcomeError:
		a.Errors++
	default:
		a.OK++
	}
	if repeat {
		a.RepeatHits++
	}
	a.Funnel = FunnelTotals(a.Funnel, o.Funnel)
}

// maxExactPerShape bounds the per-shape set of distinct exact hashes
// kept for repeat detection. Once full, unseen exact keys are treated
// as fresh (repeats under-count), keeping the estimate an upper bound
// on a *bounded* cache's hit rate rather than an unbounded memory cost.
const maxExactPerShape = 256

// shapeEntry is one Space-Saving counter plus its aggregates. When a
// shape is evicted and later readmitted the aggregates restart from
// zero — the standard Space-Saving caveat: totals are exact for shapes
// that never left the sketch, lower bounds otherwise.
type shapeEntry struct {
	shape      uint64
	count      int64 // Space-Saving estimate: true count ≤ count ≤ true + errBound... see Observe
	errBound   int64 // over-count inherited at admission (0 for never-evicted keys)
	example    string
	nodes      int
	edges      int
	pivotLabel int
	approx     bool
	agg        ShapeAggregates
	exactSeen  map[uint64]int64
	lat        *Histogram // wall times, unregistered
}

// Workload is the bounded-memory workload sketch: at most K tracked
// shapes regardless of how many distinct shapes the stream contains,
// with the classic Space-Saving guarantee that any shape's count
// estimate is off by at most N/K (N = observations so far). All methods
// are nil-safe so the unarmed serving path costs a single nil check.
type Workload struct {
	mu        sync.Mutex
	k         int
	entries   map[uint64]*shapeEntry
	observed  int64
	admitted  int64 // new-key admissions: an upper estimate of distinct shapes
	evictions int64
	repeats   int64
}

// DefaultWorkloadK is the top-K capacity used when NewWorkload is given
// a non-positive k: small enough that /queryz stays readable, large
// enough that a realistic serving mix never churns.
const DefaultWorkloadK = 64

// NewWorkload returns a sketch tracking at most k shapes (non-positive
// k means DefaultWorkloadK).
func NewWorkload(k int) *Workload {
	if k <= 0 {
		k = DefaultWorkloadK
	}
	return &Workload{k: k, entries: make(map[uint64]*shapeEntry, k)}
}

// Observe folds one served query into the sketch. Nil-safe: the
// disabled path is a single nil check.
func (w *Workload) Observe(o QueryObservation) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.observed++
	e, ok := w.entries[o.Shape]
	if ok {
		e.count++
	} else {
		var inherited int64
		if len(w.entries) >= w.k {
			// Space-Saving eviction: replace the minimum-count entry and
			// inherit its count as both estimate floor and error bound.
			min := w.minEntry()
			inherited = min.count
			delete(w.entries, min.shape)
			w.evictions++
			workloadChurn.Inc()
		}
		e = &shapeEntry{
			shape:      o.Shape,
			count:      inherited + 1,
			errBound:   inherited,
			example:    o.Example,
			nodes:      o.Nodes,
			edges:      o.Edges,
			pivotLabel: o.PivotLabel,
			approx:     o.Approx,
			exactSeen:  make(map[uint64]int64, 4),
			lat:        newHistogram("", "", LatencyBuckets),
		}
		w.entries[o.Shape] = e
		w.admitted++
	}
	if e.example == "" {
		e.example = o.Example
	}
	repeat := false
	if n, seen := e.exactSeen[o.Exact]; seen {
		e.exactSeen[o.Exact] = n + 1
		repeat = true
	} else if len(e.exactSeen) < maxExactPerShape {
		e.exactSeen[o.Exact] = 1
	}
	e.agg.fold(o, repeat)
	e.lat.Observe(o.Wall.Seconds())

	tracked, admitted := len(w.entries), w.admitted
	if repeat {
		w.repeats++
	}
	w.mu.Unlock()

	workloadObserved.Inc()
	if repeat {
		workloadRepeats.Inc()
	}
	if o.Approx {
		workloadApprox.Inc()
	}
	workloadTracked.Set(int64(tracked))
	workloadDistinct.Set(admitted)
}

// minEntry returns the tracked entry with the smallest count (ties
// broken by shape hash for determinism). Linear in K; only reached on a
// miss with a full sketch, and K is small by construction.
func (w *Workload) minEntry() *shapeEntry {
	var min *shapeEntry
	for _, e := range w.entries {
		if min == nil || e.count < min.count || (e.count == min.count && e.shape < min.shape) {
			min = e
		}
	}
	return min
}

// ShapeData is one /queryz row: the fingerprint, its Space-Saving count
// estimate, and the per-shape cost aggregates.
type ShapeData struct {
	Fingerprint string `json:"shape"`
	Example     string `json:"example,omitempty"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	PivotLabel  int    `json:"pivot_label"`
	Approx      bool   `json:"approx,omitempty"`

	Count         int64   `json:"count"`
	CountErr      int64   `json:"count_err"`
	CountShare    float64 `json:"count_share"`
	CostShare     float64 `json:"cost_share"`
	DistinctExact int     `json:"distinct_exact"`
	MeanMillis    float64 `json:"mean_ms"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`

	Totals ShapeAggregates `json:"totals"`
}

// CacheWinEstimate is the explicit answer-cache what-if: RepeatHits
// counts queries whose exact (fingerprint, pivot) key was already seen,
// so HitRate is an upper bound on the hit rate of any answer cache, and
// SavableNanos prices those hits at their shape's mean cost.
type CacheWinEstimate struct {
	RepeatHits   int64   `json:"repeat_hits"`
	Observed     int64   `json:"observed"`
	HitRate      float64 `json:"hit_rate_upper_bound"`
	SavableNanos int64   `json:"savable_nanos"`
	SavableShare float64 `json:"savable_share"`
}

// WorkloadData is the /queryz?format=json document (schema 1). Shapes
// are ranked by total cost, descending.
type WorkloadData struct {
	Schema           int              `json:"schema"`
	K                int              `json:"k"`
	Observed         int64            `json:"observed"`
	TrackedShapes    int              `json:"tracked_shapes"`
	DistinctEstimate int64            `json:"distinct_shapes_estimate"`
	Evictions        int64            `json:"topk_evictions"`
	TotalCostNanos   int64            `json:"total_cost_nanos"`
	CacheWin         CacheWinEstimate `json:"cache_win"`
	Shapes           []ShapeData      `json:"shapes"`
}

// Snapshot returns a point-in-time copy of the sketch, shapes ranked by
// aggregate cost (descending; count then fingerprint break ties).
func (w *Workload) Snapshot() WorkloadData {
	if w == nil {
		return WorkloadData{Schema: 1}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	d := WorkloadData{
		Schema:           1,
		K:                w.k,
		Observed:         w.observed,
		TrackedShapes:    len(w.entries),
		DistinctEstimate: w.admitted,
		Evictions:        w.evictions,
		CacheWin:         CacheWinEstimate{RepeatHits: w.repeats, Observed: w.observed},
	}
	var totalCost int64
	for _, e := range w.entries {
		totalCost += e.agg.CostNanos
	}
	d.TotalCostNanos = totalCost
	for _, e := range w.entries {
		s := ShapeData{
			Fingerprint:   fmt.Sprintf("%016x", e.shape),
			Example:       e.example,
			Nodes:         e.nodes,
			Edges:         e.edges,
			PivotLabel:    e.pivotLabel,
			Approx:        e.approx,
			Count:         e.count,
			CountErr:      e.errBound,
			DistinctExact: len(e.exactSeen),
			Totals:        e.agg,
		}
		if w.observed > 0 {
			s.CountShare = float64(e.count) / float64(w.observed)
		}
		if totalCost > 0 {
			s.CostShare = float64(e.agg.CostNanos) / float64(totalCost)
		}
		h := e.lat.snapshot()
		if h.Count > 0 {
			s.MeanMillis = h.Sum / float64(h.Count) * 1e3
			if q, ok := HistogramQuantile(h, 0.50); ok {
				s.P50Millis = q * 1e3
			}
			if q, ok := HistogramQuantile(h, 0.95); ok {
				s.P95Millis = q * 1e3
			}
			if q, ok := HistogramQuantile(h, 0.99); ok {
				s.P99Millis = q * 1e3
			}
		}
		// Price this shape's repeats at its mean cost: what an ideal
		// answer cache would have saved on them.
		if h.Count > 0 && e.agg.RepeatHits > 0 {
			d.CacheWin.SavableNanos += e.agg.RepeatHits * (e.agg.CostNanos / h.Count)
		}
		d.Shapes = append(d.Shapes, s)
	}
	sort.Slice(d.Shapes, func(i, j int) bool {
		a, b := &d.Shapes[i], &d.Shapes[j]
		if a.Totals.CostNanos != b.Totals.CostNanos {
			return a.Totals.CostNanos > b.Totals.CostNanos
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Fingerprint < b.Fingerprint
	})
	if w.observed > 0 {
		d.CacheWin.HitRate = float64(w.repeats) / float64(w.observed)
	}
	if totalCost > 0 {
		d.CacheWin.SavableShare = float64(d.CacheWin.SavableNanos) / float64(totalCost)
	}
	return d
}

// WriteText renders the /queryz table: a sketch header, the cache-win
// estimate, then one row per shape ranked by aggregate cost.
func (d WorkloadData) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("workload sketch  observed=%d  shapes=%d tracked / ≈%d distinct  k=%d  churn=%d\n",
		d.Observed, d.TrackedShapes, d.DistinctEstimate, d.K, d.Evictions)
	pr("cache-win (upper bound, exact (fingerprint, pivot) repeats): hit-rate ≤ %.1f%%  savable ≈ %s (%.1f%% of %s total cost)\n\n",
		d.CacheWin.HitRate*100,
		time.Duration(d.CacheWin.SavableNanos).Round(time.Millisecond),
		d.CacheWin.SavableShare*100,
		time.Duration(d.TotalCostNanos).Round(time.Millisecond))
	if len(d.Shapes) == 0 {
		pr("no queries observed yet\n")
		return err
	}
	pr("%-18s %-14s %4s %4s  %-14s %5s %5s  %9s %9s  %-15s %-11s %6s %6s\n",
		"SHAPE", "EXAMPLE", "N", "E", "COUNT(±ERR)", "CNT%", "COST%",
		"TOTAL", "P95", "OK/SHED/DL/ERR", "α O/P", "REPEAT", "WORK")
	for _, s := range d.Shapes {
		mark := ""
		if s.Approx {
			mark = "~"
		}
		pr("%-18s %-14s %4d %4d  %-14s %4.0f%% %4.0f%%  %9s %9s  %-15s %-11s %6d %6d\n",
			s.Fingerprint+mark, s.Example, s.Nodes, s.Edges,
			fmt.Sprintf("%d(±%d)", s.Count, s.CountErr),
			s.CountShare*100, s.CostShare*100,
			time.Duration(s.Totals.CostNanos).Round(time.Millisecond),
			time.Duration(s.P95Millis*float64(time.Millisecond)).Round(10*time.Microsecond),
			fmt.Sprintf("%d/%d/%d/%d", s.Totals.OK, s.Totals.Shed, s.Totals.Deadline, s.Totals.Errors),
			fmt.Sprintf("%d/%d", s.Totals.ModeOptimistic, s.Totals.ModePessimistic),
			s.Totals.RepeatHits, s.Totals.Work)
	}
	return err
}

// obs_workload_* meta-metrics: the sketch's own health, exported
// through the default registry so /metrics and a bundle's metrics.json
// show workload-shape churn like any other counter.
var (
	workloadObserved = Default.Counter("obs_workload_observed_total",
		"Queries folded into the workload sketch.")
	workloadRepeats = Default.Counter("obs_workload_repeat_hits_total",
		"Queries whose exact (fingerprint, pivot) key was already seen: the answer-cache hit-rate upper bound numerator.")
	workloadChurn = Default.Counter("obs_workload_topk_churn_total",
		"Space-Saving evictions from the top-K sketch; a high rate means K is too small for the shape mix.")
	workloadApprox = Default.Counter("obs_workload_approx_fingerprints_total",
		"Fingerprints that exhausted the canonical-code budget and fell back to the structural hash.")
	workloadTracked = Default.Gauge("obs_workload_tracked_shapes",
		"Shapes currently tracked by the workload sketch (at most K).")
	workloadDistinct = Default.Gauge("obs_workload_distinct_shapes_estimate",
		"Upper estimate of distinct query shapes observed (sketch admissions).")
)
