package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the model-decision observability layer: the aggregate
// telemetry behind /modelz (ModelStats, which also keeps the most
// recent audited records).
//
// SmartPSI's bet (paper §4) is that the per-node choices of model α
// (optimistic vs pessimistic method) and model β (search order) beat
// either fixed strategy. ModelStats turns that bet into measurable
// quantities: a full 2×2 confusion matrix and vote-margin calibration
// for model α, plan-rank tracking for model β against the training
// sweeps, and per-decision regret from shadow scoring — the extra time
// the predicted choice cost versus a counterfactual run of the
// opposite method or an alternative plan.

// Decision-record kinds.
const (
	// DecisionKindMode is a shadow run of the opposite method (audits
	// model α): regret compares the predicted method against its
	// counterfactual on the same plan.
	DecisionKindMode = "mode"
	// DecisionKindPlan is a shadow run of a sampled alternative plan
	// (audits model β) under the same method.
	DecisionKindPlan = "plan"
	// DecisionKindBeta is a model-β plan-rank observation from the
	// training sweeps: Rank is the predicted plan's 1-based position in
	// the sweep's measured per-plan times.
	DecisionKindBeta = "beta"
)

// DecisionRecord is one audited model decision, as /modelz?format=json
// lists it among the recent ones. Fields are populated per Kind;
// zero-valued optional fields are omitted.
type DecisionRecord struct {
	// Kind is one of the DecisionKind* constants.
	Kind string `json:"kind"`
	// Query names the originating query (the profile name).
	Query string `json:"query,omitempty"`
	// RequestID is the serving-layer X-Request-ID that produced this
	// decision, when the query arrived through psi-serve.
	RequestID string `json:"request_id,omitempty"`
	// Fingerprint is the query's canonical shape fingerprint (the
	// /queryz grouping key), letting an audit be pivoted by workload
	// shape.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Node is the audited candidate node (-1 for beta-rank records).
	Node int64 `json:"node"`
	// FromCache marks decisions served by the node's decision slot (the
	// §4.2.3 prediction memo) rather than a fresh prediction.
	FromCache bool `json:"from_cache,omitempty"`
	// PredMode is model α's method choice (0 optimistic, 1 pessimistic,
	// psi.Mode numbering).
	PredMode int `json:"pred_mode"`
	// PredPlan is model β's plan choice.
	PredPlan int `json:"pred_plan"`
	// VoteMargin is model α's forest vote margin in [0,1]:
	// (winner − loser) / trees. Zero when no fresh prediction was made.
	VoteMargin float64 `json:"vote_margin"`
	// ActualValid is the ground-truth node label established by the
	// primary evaluation.
	ActualValid bool `json:"actual_valid"`
	// ShadowMode / ShadowPlan identify the counterfactual that was run
	// (mode and plan kinds).
	ShadowMode int `json:"shadow_mode,omitempty"`
	ShadowPlan int `json:"shadow_plan,omitempty"`
	// PrimaryNanos / ShadowNanos are the primary and counterfactual wall
	// times; RegretNanos is max(0, primary − shadow) — the cost of the
	// predicted choice versus the counterfactual.
	PrimaryNanos int64 `json:"primary_nanos,omitempty"`
	ShadowNanos  int64 `json:"shadow_nanos,omitempty"`
	RegretNanos  int64 `json:"regret_nanos"`
	// ShadowTimeout marks counterfactuals censored by the shadow budget
	// (the predicted choice was at least budget/primary times faster, so
	// regret is 0 but the shadow time is a lower bound).
	ShadowTimeout bool `json:"shadow_timeout,omitempty"`
	// Rank is the beta-kind plan rank (1 = the predicted plan was the
	// sweep's fastest).
	Rank int `json:"rank,omitempty"`
}

// NumCalibrationBuckets is the vote-margin calibration resolution:
// margin ∈ [0,1] split into equal buckets.
const NumCalibrationBuckets = 5

// CalibrationBucketIndex maps a vote margin to its bucket.
func CalibrationBucketIndex(margin float64) int {
	i := int(margin * NumCalibrationBuckets)
	if i < 0 {
		i = 0
	}
	if i >= NumCalibrationBuckets {
		i = NumCalibrationBuckets - 1
	}
	return i
}

// CalibrationBucket is one vote-margin calibration cell: how often
// predictions with this confidence were right.
type CalibrationBucket struct {
	N       int64 `json:"n"`
	Correct int64 `json:"correct"`
}

// AlphaCells are model α's scored predictions: the confusion matrix and
// the vote-margin calibration. Every scored prediction lands here, not
// just shadow-sampled ones — ground truth is free (§4.2.1: the
// evaluation itself labels the node). The engine's workers tally cells
// in plain fields and add them to /modelz once (ModelStats.AddAlpha).
type AlphaCells struct {
	// Alpha is the confusion matrix [actual][predicted], with 1 = valid
	// (optimistic).
	Alpha [2][2]int64 `json:"alpha_confusion"`
	// Calibration buckets cover margin [i/N, (i+1)/N).
	Calibration [NumCalibrationBuckets]CalibrationBucket `json:"calibration"`
}

// Score folds one model-α prediction (predValid: optimistic) with its
// vote margin against the ground truth.
func (c *AlphaCells) Score(predValid, actualValid bool, margin float64) {
	c.Alpha[boolIdx(actualValid)][boolIdx(predValid)]++
	b := &c.Calibration[CalibrationBucketIndex(margin)]
	b.N++
	if predValid == actualValid {
		b.Correct++
	}
}

// AlphaTotal returns the number of scored model-α predictions.
func (c AlphaCells) AlphaTotal() int64 {
	return c.Alpha[0][0] + c.Alpha[0][1] + c.Alpha[1][0] + c.Alpha[1][1]
}

// AlphaCorrect returns the confusion-matrix diagonal: the predictions
// ground truth confirmed.
func (c AlphaCells) AlphaCorrect() int64 { return c.Alpha[0][0] + c.Alpha[1][1] }

// AlphaAccuracy returns the confusion-matrix diagonal fraction (1.0
// when empty).
func (c AlphaCells) AlphaAccuracy() float64 {
	t := c.AlphaTotal()
	if t == 0 {
		return 1
	}
	return float64(c.AlphaCorrect()) / float64(t)
}

// RegretAggregate summarizes one shadow-scoring family.
type RegretAggregate struct {
	// Runs counts shadow evaluations; Timeouts the ones censored by the
	// shadow budget (regret 0, counterfactual at least the budget).
	Runs     int64 `json:"runs"`
	Timeouts int64 `json:"timeouts"`
	// TotalNanos / MaxNanos aggregate the per-decision regret
	// max(0, primary − shadow).
	TotalNanos int64 `json:"total_nanos"`
	MaxNanos   int64 `json:"max_nanos"`
}

func (a *RegretAggregate) observe(rec *DecisionRecord) {
	a.Runs++
	if rec.ShadowTimeout {
		a.Timeouts++
	}
	a.TotalNanos += rec.RegretNanos
	a.MaxNanos = max(a.MaxNanos, rec.RegretNanos)
}

// Mean returns the mean regret per shadow run.
func (a RegretAggregate) Mean() time.Duration {
	if a.Runs == 0 {
		return 0
	}
	return time.Duration(a.TotalNanos / a.Runs)
}

// ModelStats aggregates model-decision telemetry for /modelz. All
// methods take the stats mutex and also publish into the Default
// registry's shadow/quality metrics, so /metrics and /modelz stay
// consistent from a single call site. Methods are nil-safe.
type ModelStats struct {
	mu    sync.Mutex
	alpha AlphaCells
	// betaRanks[r-1] counts sweep nodes whose predicted plan ranked r
	// among the sweep's finished plans (1 = fastest).
	betaRanks []int64
	// Shadow-scoring regret, split by audited model.
	mode, plan RegretAggregate
	// shadowMismatches counts shadow runs whose matched/not-matched
	// verdict contradicted the primary run (a soundness bug; also an
	// invariant violation when deep checking is on).
	shadowMismatches int64
	// recent holds the last RecentDecisions retained records, oldest
	// first.
	recent []DecisionRecord
}

// RecentDecisions bounds the audited records a ModelStats retains for
// /modelz?format=json's "recent" list.
const RecentDecisions = 512

// DefaultModelStats is the process-wide aggregate served at /modelz.
var DefaultModelStats = &ModelStats{}

// AddAlpha adds a batch of scored model-α predictions, under one lock.
func (m *ModelStats) AddAlpha(c AlphaCells) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for a := range c.Alpha {
		for p, n := range c.Alpha[a] {
			m.alpha.Alpha[a][p] += n
		}
	}
	for i, b := range c.Calibration {
		m.alpha.Calibration[i].N += b.N
		m.alpha.Calibration[i].Correct += b.Correct
	}
}

// Observe folds one decision record into the aggregates: a shadow run's
// regret (mode and plan kinds) or a model-β plan rank (beta). With keep it also retains the record among
// the recent ones /modelz serves. This is the one fold from a record
// into the aggregates; the engine calls it as it audits.
func (m *ModelStats) Observe(rec DecisionRecord, keep bool) {
	if m == nil {
		return
	}
	regret := time.Duration(rec.RegretNanos).Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	switch rec.Kind {
	case DecisionKindMode:
		m.mode.observe(&rec)
		SmartShadowModeRuns.Inc()
		SmartModeRegretSeconds.Observe(regret)
	case DecisionKindPlan:
		m.plan.observe(&rec)
		SmartShadowPlanRuns.Inc()
		SmartPlanRegretSeconds.Observe(regret)
	case DecisionKindBeta:
		if rec.Rank < 1 {
			break
		}
		for len(m.betaRanks) < rec.Rank {
			m.betaRanks = append(m.betaRanks, 0)
		}
		m.betaRanks[rec.Rank-1]++
		SmartBetaRankChecks.Inc()
		if rec.Rank == 1 {
			SmartBetaRankTop1.Inc()
		}
	}
	if rec.ShadowTimeout {
		SmartShadowTimeouts.Inc()
	}
	if keep {
		if len(m.recent) == RecentDecisions {
			m.recent = m.recent[1:]
		}
		m.recent = append(m.recent, rec)
	}
}

// ObserveShadowMismatch records a shadow/primary verdict disagreement.
func (m *ModelStats) ObserveShadowMismatch() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.shadowMismatches++
	m.mu.Unlock()
	SmartShadowMismatches.Inc()
}

// Reset zeroes the aggregate (tests only; the registry metrics are
// reset separately via Registry.Reset).
func (m *ModelStats) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.alpha = AlphaCells{}
	m.betaRanks = nil
	m.mode, m.plan = RegretAggregate{}, RegretAggregate{}
	m.shadowMismatches = 0
	m.recent = nil
	m.mu.Unlock()
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ModelStatsData is a point-in-time ModelStats snapshot: plain data,
// JSON-ready, and the input of the /modelz text renderer.
type ModelStatsData struct {
	AlphaCells
	// BetaRanks[r-1] counts predictions of sweep-rank r.
	BetaRanks        []int64         `json:"beta_ranks,omitempty"`
	ModeRegret       RegretAggregate `json:"mode_regret"`
	PlanRegret       RegretAggregate `json:"plan_regret"`
	ShadowMismatches int64           `json:"shadow_mismatches"`
	// Recent are the last retained audited records, oldest first.
	Recent []DecisionRecord `json:"recent,omitempty"`
}

// Snapshot captures the aggregate's current state.
func (m *ModelStats) Snapshot() ModelStatsData {
	var d ModelStatsData
	if m == nil {
		return d
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d.AlphaCells = m.alpha
	d.BetaRanks = append([]int64(nil), m.betaRanks...)
	d.ModeRegret, d.PlanRegret = m.mode, m.plan
	d.ShadowMismatches = m.shadowMismatches
	d.Recent = append([]DecisionRecord(nil), m.recent...)
	return d
}

// BetaObserved returns the number of plan-rank observations.
func (d ModelStatsData) BetaObserved() int64 {
	var n int64
	for _, c := range d.BetaRanks {
		n += c
	}
	return n
}

// BetaTopK returns the fraction of plan predictions ranked ≤ k (1.0
// when nothing was observed).
func (d ModelStatsData) BetaTopK(k int) float64 {
	total := d.BetaObserved()
	if total == 0 {
		return 1
	}
	var in int64
	for i, c := range d.BetaRanks {
		if i < k {
			in += c
		}
	}
	return float64(in) / float64(total)
}

// WriteText renders the /modelz report.
func (d ModelStatsData) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "model-decision observability (/modelz?format=json for JSON)\n\n")

	fmt.Fprintf(&buf, "model α (node type, §4.2) — confusion matrix, %d scored predictions\n", d.AlphaTotal())
	fmt.Fprintf(&buf, "  %-16s  %12s  %12s\n", "", "pred-invalid", "pred-valid")
	fmt.Fprintf(&buf, "  %-16s  %12d  %12d\n", "actual-invalid", d.Alpha[0][0], d.Alpha[0][1])
	fmt.Fprintf(&buf, "  %-16s  %12d  %12d\n", "actual-valid", d.Alpha[1][0], d.Alpha[1][1])
	fmt.Fprintf(&buf, "  accuracy %.4f", d.AlphaAccuracy())
	if pv := d.Alpha[0][1] + d.Alpha[1][1]; pv > 0 {
		fmt.Fprintf(&buf, "  precision(valid) %.4f", float64(d.Alpha[1][1])/float64(pv))
	}
	if av := d.Alpha[1][0] + d.Alpha[1][1]; av > 0 {
		fmt.Fprintf(&buf, "  recall(valid) %.4f", float64(d.Alpha[1][1])/float64(av))
	}
	fmt.Fprintf(&buf, "\n\n")

	fmt.Fprintf(&buf, "vote-margin calibration (forest margin → empirical accuracy)\n")
	fmt.Fprintf(&buf, "  %-12s  %10s  %10s\n", "margin", "n", "accuracy")
	for i, b := range d.Calibration {
		lo := float64(i) / NumCalibrationBuckets
		hi := float64(i+1) / NumCalibrationBuckets
		acc := "-"
		if b.N > 0 {
			acc = fmt.Sprintf("%.4f", float64(b.Correct)/float64(b.N))
		}
		fmt.Fprintf(&buf, "  [%.1f,%.1f)    %10d  %10s\n", lo, hi, b.N, acc)
	}
	fmt.Fprintf(&buf, "\n")

	fmt.Fprintf(&buf, "model β (plan choice, §4.2) — predicted-plan rank vs training sweeps: %d observed", d.BetaObserved())
	if d.BetaObserved() > 0 {
		fmt.Fprintf(&buf, ", top-1 %.3f, top-2 %.3f\n  ranks:", d.BetaTopK(1), d.BetaTopK(2))
		for i, c := range d.BetaRanks {
			if c != 0 {
				fmt.Fprintf(&buf, " %d:%d", i+1, c)
			}
		}
	}
	fmt.Fprintf(&buf, "\n\n")

	writeRegret := func(name string, a RegretAggregate) {
		fmt.Fprintf(&buf, "shadow %s regret: %d runs (%d censored by budget), total %s, mean %s, max %s\n",
			name, a.Runs, a.Timeouts,
			time.Duration(a.TotalNanos).Round(time.Microsecond),
			a.Mean().Round(time.Microsecond),
			time.Duration(a.MaxNanos).Round(time.Microsecond))
	}
	writeRegret("mode (model α counterfactual)", d.ModeRegret)
	writeRegret("plan (model β counterfactual)", d.PlanRegret)
	fmt.Fprintf(&buf, "shadow verdict mismatches: %d (must be 0; invariant-gated)\n", d.ShadowMismatches)
	if len(d.Recent) > 0 {
		fmt.Fprintf(&buf, "recent audited decisions retained: %d (listed as \"recent\" in the JSON)\n", len(d.Recent))
	}
	_, err := w.Write(buf.Bytes())
	return err
}
