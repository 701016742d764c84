package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// This file implements the per-query execution profile — an EXPLAIN
// ANALYZE for PSI queries. A Profile records, for one SmartPSI
// evaluation:
//
//   - the chosen method (per-candidate model-α mode predictions, model-β
//     plan choices, and the cache hit/miss split that produced them),
//   - the recovery-ladder timeline of Section 4.3 (per-rung entry,
//     resolution and wall-time aggregates: predicted → opposite method →
//     heuristic plan), and
//   - the per-depth candidate funnel: candidates generated → surviving
//     the degree bound → surviving Proposition 3.2 signature
//     satisfaction → recursed into → matched.
//
// The funnel is filled lock-free by the PSI evaluator (psi.State holds
// a plain *Funnel and pays one nil check per event) and merged into the
// Profile at batch boundaries; all other Profile methods take the
// profile mutex and are nil-safe, so call sites hold the result of
// Recorder.Start unconditionally.

// FunnelStage names used by renderers, in pipeline order. Each stage
// counts the candidates that *survived* up to that point, so within a
// depth the counts are monotone non-increasing (the invariant pinned by
// invariant.CheckFunnel).
var funnelStageNames = [...]string{"generated", "deg-ok", "sig-ok", "recursed", "matched"}

// FunnelDepth is one row of the per-depth candidate funnel: how many
// candidates at this plan depth reached each pipeline stage.
type FunnelDepth struct {
	// Generated counts candidates enumerated at this depth (label-run
	// neighbors of the anchor; the pivot itself at depth 0).
	Generated int64 `json:"generated"`
	// DegOK counts candidates that passed the basic checks (edge label,
	// injectivity, non-anchor adjacency) and the degree lower bound.
	DegOK int64 `json:"deg_ok"`
	// SigOK counts candidates that additionally satisfied the query
	// node's signature (Proposition 3.2). Optimistic evaluation applies
	// neither prune, so DegOK == SigOK there.
	SigOK int64 `json:"sig_ok"`
	// Recursed counts candidates actually bound and descended into
	// (the search stops at the first full mapping, so Recursed can be
	// smaller than SigOK).
	Recursed int64 `json:"recursed"`
	// Matched counts candidates whose subtree produced a full mapping.
	Matched int64 `json:"matched"`
}

func (d *FunnelDepth) add(o *FunnelDepth) {
	d.Generated += o.Generated
	d.DegOK += o.DegOK
	d.SigOK += o.SigOK
	d.Recursed += o.Recursed
	d.Matched += o.Matched
}

// stages returns the counts in pipeline order, aligned with
// funnelStageNames.
func (d *FunnelDepth) stages() [5]int64 {
	return [5]int64{d.Generated, d.DegOK, d.SigOK, d.Recursed, d.Matched}
}

// Stages returns the stage counts in pipeline order (generated, deg-ok,
// sig-ok, recursed, matched); StageNames returns the matching labels.
// invariant.CheckFunnel iterates these rather than the named fields so
// a new stage cannot be added without extending the monotonicity check.
func (d *FunnelDepth) Stages() [5]int64 { return d.stages() }

// StageNames returns the display names aligned with Stages.
func StageNames() [5]string {
	var out [5]string
	copy(out[:], funnelStageNames[:])
	return out
}

// Funnel is a per-depth candidate funnel. It is plain data with no
// internal locking: the PSI evaluator increments it lock-free from a
// single goroutine (one Funnel per psi.State) and workers merge their
// funnels into the owning Profile, which locks.
type Funnel struct {
	Depths []FunnelDepth `json:"depths"`
}

// At returns the row for the given plan depth, growing the funnel as
// needed.
func (f *Funnel) At(depth int) *FunnelDepth {
	for len(f.Depths) <= depth {
		f.Depths = append(f.Depths, FunnelDepth{})
	}
	return &f.Depths[depth]
}

// Merge accumulates o into f (no-op for a nil o).
func (f *Funnel) Merge(o *Funnel) {
	if o == nil {
		return
	}
	for d := range o.Depths {
		f.At(d).add(&o.Depths[d])
	}
}

// Totals sums the funnel across depths.
func (f *Funnel) Totals() FunnelDepth {
	var t FunnelDepth
	for i := range f.Depths {
		t.add(&f.Depths[i])
	}
	return t
}

// Clone returns a deep copy.
func (f *Funnel) Clone() *Funnel {
	if f == nil {
		return nil
	}
	return &Funnel{Depths: append([]FunnelDepth(nil), f.Depths...)}
}

// Ladder rungs of the Section 4.3 recovery ladder, in escalation order.
const (
	// LadderPredicted is rung 1: the model-predicted method and plan
	// under the MaxTime budget.
	LadderPredicted = iota
	// LadderOpposite is rung 2: the opposite method after a rung-1
	// timeout (recovers from model-α errors).
	LadderOpposite
	// LadderHeuristic is rung 3: the heuristic plan bounded only by the
	// global budget (recovers from model-β errors).
	LadderHeuristic
	// NumLadderRungs is the rung count.
	NumLadderRungs
)

var ladderRungNames = [NumLadderRungs]string{"predicted", "opposite", "heuristic"}

// LadderRung aggregates one recovery-ladder rung over a whole query.
type LadderRung struct {
	// Entered counts candidate evaluations that ran this rung.
	Entered int64 `json:"entered"`
	// Resolved counts evaluations that finished here (no timeout or
	// error escalated them further).
	Resolved int64 `json:"resolved"`
	// Nanos is the total wall time spent in this rung.
	Nanos int64 `json:"nanos"`
}

// Mode display names, aligned with psi.Mode's constant order
// (0 = optimistic, 1 = pessimistic).
var modeNames = [...]string{"optimistic", "pessimistic"}

func modeName(mode int) string {
	if mode >= 0 && mode < len(modeNames) {
		return modeNames[mode]
	}
	return fmt.Sprintf("mode(%d)", mode)
}

// Profile is one query's execution profile. All methods are safe for
// concurrent use and nil-safe, so call sites can hold the result of
// Recorder.Start (nil when collection is off) unconditionally.
type Profile struct {
	id    uint64
	name  string
	start time.Time
	rec   *Recorder

	mu           sync.Mutex
	finished     bool
	duration     time.Duration
	requestID    string
	fingerprint  string
	method       string
	candidates   int
	bindings     int
	trainedNodes int
	planClasses  int
	trainTime    time.Duration
	fitTime      time.Duration
	cacheHits    int64
	cacheMisses  int64
	// Shadow-audit aggregates (regret is the per-query total of
	// max(0, primary − counterfactual) across audited decisions).
	shadowModeRuns int64
	shadowPlanRuns int64
	shadowTimeouts int64
	regretNanos    int64
	cacheChecks    int64
	cacheStale     int64
	modeCounts     [len(modeNames)]int64
	planCounts     []int64
	ladder         [NumLadderRungs]LadderRung
	funnel         Funnel
	work           map[string]int64
	errMsg         string
}

// NewProfile returns a standalone profile (no recorder); tests and
// ad-hoc measurements use it. Production profiles come from
// Recorder.Start.
func NewProfile(name string) *Profile {
	return &Profile{name: name, start: time.Now()}
}

// ID returns the recorder-assigned sequence number (0 for standalone
// profiles).
func (p *Profile) ID() uint64 {
	if p == nil {
		return 0
	}
	return p.id
}

// Name returns the label given at creation.
func (p *Profile) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Duration returns the recorded duration for finished profiles,
// time-since-start for live ones.
func (p *Profile) Duration() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		return time.Since(p.start)
	}
	return p.duration
}

// Finished reports whether Finish has been called.
func (p *Profile) Finished() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished
}

// SetRequestID tags the profile with the serving-layer request ID
// (X-Request-ID), making it retrievable via /profilez?request_id=.
func (p *Profile) SetRequestID(id string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.requestID = id
	p.mu.Unlock()
}

// RequestID returns the serving-layer request ID, if one was set.
func (p *Profile) RequestID() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requestID
}

// SetFingerprint tags the profile with the query's canonical shape
// fingerprint (fsm.PivotFingerprint rendered as hex), making it
// retrievable via /profilez?fingerprint= and letting bundle readers
// pivot profiles by workload shape.
func (p *Profile) SetFingerprint(fp string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.fingerprint = fp
	p.mu.Unlock()
}

// Fingerprint returns the canonical shape fingerprint, if one was set.
func (p *Profile) Fingerprint() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fingerprint
}

// ModeMix returns the model-α pick counts in psi.Mode order
// (optimistic, pessimistic); the workload sketch attributes the pick
// mix per shape from it.
func (p *Profile) ModeMix() [2]int64 {
	if p == nil {
		return [2]int64{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.modeCounts
}

// SetMethod records how the query was executed ("ml" for the full
// model-driven pipeline trained by this request, "ml-warm" for the same
// pipeline on a cached artifact, "pessimistic-heuristic" for candidate
// sets too small to train on).
func (p *Profile) SetMethod(method string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.method = method
	p.mu.Unlock()
}

// SetCandidates records the candidate-set size (label-matching nodes).
func (p *Profile) SetCandidates(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.candidates = n
	p.mu.Unlock()
}

// SetTraining records the training-phase summary: training-set size,
// model-β class count, training wall time and the part of it spent
// fitting the forests.
func (p *Profile) SetTraining(trainedNodes, planClasses int, trainTime, fitTime time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.trainedNodes = trainedNodes
	p.planClasses = planClasses
	p.trainTime = trainTime
	p.fitTime = fitTime
	p.mu.Unlock()
}

// RecordDecision records one per-candidate method/plan decision:
// whether it came from the signature-keyed cache, which mode model α
// chose (psi.Mode numbering), and which plan model β chose.
func (p *Profile) RecordDecision(fromCache bool, mode, planIdx int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if fromCache {
		p.cacheHits++
	} else {
		p.cacheMisses++
	}
	if mode >= 0 && mode < len(p.modeCounts) {
		p.modeCounts[mode]++
	}
	if planIdx >= 0 {
		for len(p.planCounts) <= planIdx {
			p.planCounts = append(p.planCounts, 0)
		}
		p.planCounts[planIdx]++
	}
	p.mu.Unlock()
}

// RecordShadow records one shadow audit: kind (DecisionKindMode or
// DecisionKindPlan), the decision's regret, and whether the
// counterfactual was censored by the shadow budget.
func (p *Profile) RecordShadow(kind string, regret time.Duration, timedOut bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if kind == DecisionKindPlan {
		p.shadowPlanRuns++
	} else {
		p.shadowModeRuns++
	}
	if timedOut {
		p.shadowTimeouts++
	}
	p.regretNanos += regret.Nanoseconds()
	p.mu.Unlock()
}

// RecordCacheCheck records one sampled cache-quality audit.
func (p *Profile) RecordCacheCheck(stale bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cacheChecks++
	if stale {
		p.cacheStale++
	}
	p.mu.Unlock()
}

// RegretNanos returns the per-query total shadow-scoring regret.
func (p *Profile) RegretNanos() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regretNanos
}

// LadderObserve records one recovery-ladder rung execution: the rung
// (LadderPredicted..LadderHeuristic), whether the evaluation resolved
// there, and its wall time.
func (p *Profile) LadderObserve(rung int, resolved bool, took time.Duration) {
	if p == nil || rung < 0 || rung >= NumLadderRungs {
		return
	}
	p.mu.Lock()
	r := &p.ladder[rung]
	r.Entered++
	if resolved {
		r.Resolved++
	}
	r.Nanos += took.Nanoseconds()
	p.mu.Unlock()
}

// MergeFunnel folds one evaluator state's funnel into the profile.
// Workers call it once at exit, so the hot recursion never touches the
// profile lock.
func (p *Profile) MergeFunnel(f *Funnel) {
	if p == nil || f == nil {
		return
	}
	p.mu.Lock()
	p.funnel.Merge(f)
	p.mu.Unlock()
}

// FunnelTotals returns the funnel summed over depths.
func (p *Profile) FunnelTotals() FunnelDepth {
	if p == nil {
		return FunnelDepth{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.funnel.Totals()
}

// FunnelSnapshot returns a copy of the per-depth funnel.
func (p *Profile) FunnelSnapshot() *Funnel {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.funnel.Clone()
}

// SetWork records one evaluator work counter (name → value), keyed by
// the metric names of the obs registry; psi.RecordWork fills it from a
// psi.Stats through the same table that backs PublishStats.
func (p *Profile) SetWork(name string, v int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.work == nil {
		p.work = make(map[string]int64)
	}
	p.work[name] = v
	p.mu.Unlock()
}

// SetOutcome records the result size.
func (p *Profile) SetOutcome(bindings int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.bindings = bindings
	p.mu.Unlock()
}

// SetError records a terminal error (deadline, stop, validation).
func (p *Profile) SetError(msg string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.errMsg = msg
	p.mu.Unlock()
}

// Finish seals the profile with the elapsed wall time and admits it to
// the owning recorder's slowest set. Idempotent and nil-safe.
func (p *Profile) Finish() {
	if p == nil {
		return
	}
	p.FinishIn(time.Since(p.start))
}

// FinishIn is Finish with an explicit duration; the flight-recorder
// tests use it to pin eviction order without wall-clock dependence.
func (p *Profile) FinishIn(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	p.finished = true
	p.duration = d
	rec := p.rec
	p.mu.Unlock()
	rec.admit(p)
}

// ProfileData is a point-in-time copy of a Profile: plain data, JSON-
// ready, and the input of the text renderer. Durations are nanoseconds
// in JSON.
type ProfileData struct {
	ID            uint64    `json:"id"`
	Name          string    `json:"name"`
	RequestID     string    `json:"request_id,omitempty"`
	Fingerprint   string    `json:"fingerprint,omitempty"`
	Start         time.Time `json:"start"`
	DurationNanos int64     `json:"duration_nanos"`
	Finished      bool      `json:"finished"`
	Method        string    `json:"method"`
	Candidates    int       `json:"candidates"`
	Bindings      int       `json:"bindings"`
	TrainedNodes  int       `json:"trained_nodes"`
	PlanClasses   int       `json:"plan_classes"`
	TrainNanos    int64     `json:"train_nanos"`
	FitNanos      int64     `json:"fit_nanos"`
	CacheHits     int64     `json:"cache_hits"`
	CacheMisses   int64     `json:"cache_misses"`
	// Shadow-audit aggregates: runs per audited model, budget-censored
	// counterfactuals, per-query total regret, and cache-quality checks.
	ShadowModeRuns int64            `json:"shadow_mode_runs,omitempty"`
	ShadowPlanRuns int64            `json:"shadow_plan_runs,omitempty"`
	ShadowTimeouts int64            `json:"shadow_timeouts,omitempty"`
	RegretNanos    int64            `json:"regret_nanos,omitempty"`
	CacheChecks    int64            `json:"cache_quality_checks,omitempty"`
	CacheStale     int64            `json:"cache_stale_hits,omitempty"`
	ModePredicted  map[string]int64 `json:"mode_predicted,omitempty"`
	PlanChosen     []int64          `json:"plan_chosen,omitempty"`
	Ladder         []LadderRung     `json:"ladder"`
	LadderNames    []string         `json:"ladder_names"`
	Funnel         []FunnelDepth    `json:"funnel,omitempty"`
	Work           map[string]int64 `json:"work,omitempty"`
	Error          string           `json:"error,omitempty"`
}

// Snapshot captures the profile's current state.
func (p *Profile) Snapshot() ProfileData {
	if p == nil {
		return ProfileData{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	dur := p.duration
	if !p.finished {
		dur = time.Since(p.start)
	}
	d := ProfileData{
		ID:             p.id,
		Name:           p.name,
		RequestID:      p.requestID,
		Fingerprint:    p.fingerprint,
		Start:          p.start,
		DurationNanos:  dur.Nanoseconds(),
		Finished:       p.finished,
		Method:         p.method,
		Candidates:     p.candidates,
		Bindings:       p.bindings,
		TrainedNodes:   p.trainedNodes,
		PlanClasses:    p.planClasses,
		TrainNanos:     p.trainTime.Nanoseconds(),
		FitNanos:       p.fitTime.Nanoseconds(),
		CacheHits:      p.cacheHits,
		CacheMisses:    p.cacheMisses,
		ShadowModeRuns: p.shadowModeRuns,
		ShadowPlanRuns: p.shadowPlanRuns,
		ShadowTimeouts: p.shadowTimeouts,
		RegretNanos:    p.regretNanos,
		CacheChecks:    p.cacheChecks,
		CacheStale:     p.cacheStale,
		PlanChosen:     append([]int64(nil), p.planCounts...),
		Ladder:         append([]LadderRung(nil), p.ladder[:]...),
		LadderNames:    append([]string(nil), ladderRungNames[:]...),
		Funnel:         append([]FunnelDepth(nil), p.funnel.Depths...),
		Error:          p.errMsg,
	}
	for m, n := range p.modeCounts {
		if n != 0 {
			if d.ModePredicted == nil {
				d.ModePredicted = make(map[string]int64, len(p.modeCounts))
			}
			d.ModePredicted[modeName(m)] = n
		}
	}
	if len(p.work) > 0 {
		d.Work = make(map[string]int64, len(p.work))
		for k, v := range p.work {
			d.Work[k] = v
		}
	}
	return d
}

// Duration returns the profiled wall time.
func (d ProfileData) Duration() time.Duration { return time.Duration(d.DurationNanos) }

// WriteText renders the profile as the EXPLAIN ANALYZE tree printed by
// `psi-query -explain` and served at /profilez?id=N.
func (d ProfileData) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	state := "live"
	if d.Finished {
		state = d.Duration().Round(time.Microsecond).String()
	}
	fmt.Fprintf(&buf, "query %s  (id %d)  %s  method=%s  candidates=%d  bindings=%d\n",
		d.Name, d.ID, state, orDash(d.Method), d.Candidates, d.Bindings)
	if d.RequestID != "" {
		fmt.Fprintf(&buf, "├─ request: %s\n", d.RequestID)
	}
	if d.Fingerprint != "" {
		fmt.Fprintf(&buf, "├─ shape: %s\n", d.Fingerprint)
	}
	if d.Error != "" {
		fmt.Fprintf(&buf, "├─ error: %s\n", d.Error)
	}

	fmt.Fprintf(&buf, "├─ decision  trained=%d planClasses=%d train=%s fit=%s  cache: %d hits / %d misses\n",
		d.TrainedNodes, d.PlanClasses, time.Duration(d.TrainNanos).Round(time.Microsecond),
		time.Duration(d.FitNanos).Round(time.Microsecond), d.CacheHits, d.CacheMisses)
	if len(d.ModePredicted) > 0 {
		modes := make([]string, 0, len(d.ModePredicted))
		for m := range d.ModePredicted {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		fmt.Fprintf(&buf, "│    mode (model α):")
		for _, m := range modes {
			fmt.Fprintf(&buf, " %s=%d", m, d.ModePredicted[m])
		}
		fmt.Fprintf(&buf, "\n")
	}
	if len(d.PlanChosen) > 0 {
		fmt.Fprintf(&buf, "│    plan (model β):")
		for i, n := range d.PlanChosen {
			if n != 0 {
				fmt.Fprintf(&buf, " [%d]=%d", i, n)
			}
		}
		fmt.Fprintf(&buf, "\n")
	}

	if d.ShadowModeRuns+d.ShadowPlanRuns+d.CacheChecks > 0 {
		fmt.Fprintf(&buf, "├─ shadow audit  mode=%d plan=%d censored=%d regret=%s  cache-quality: %d checks / %d stale\n",
			d.ShadowModeRuns, d.ShadowPlanRuns, d.ShadowTimeouts,
			time.Duration(d.RegretNanos).Round(time.Microsecond), d.CacheChecks, d.CacheStale)
	}

	fmt.Fprintf(&buf, "├─ recovery ladder (§4.3)\n")
	for i, r := range d.Ladder {
		name := fmt.Sprintf("rung %d", i+1)
		if i < len(d.LadderNames) {
			name = fmt.Sprintf("rung %d %-9s", i+1, d.LadderNames[i])
		}
		fmt.Fprintf(&buf, "│    %s entered=%-7d resolved=%-7d total=%s\n",
			name, r.Entered, r.Resolved, time.Duration(r.Nanos).Round(time.Microsecond))
	}

	fmt.Fprintf(&buf, "├─ candidate funnel (per plan depth; Prop 3.2 prunes = deg-ok − sig-ok)\n")
	fmt.Fprintf(&buf, "│    %5s", "depth")
	for _, s := range funnelStageNames {
		fmt.Fprintf(&buf, "  %10s", s)
	}
	fmt.Fprintf(&buf, "\n")
	for depth := range d.Funnel {
		fmt.Fprintf(&buf, "│    %5d", depth)
		for _, v := range d.Funnel[depth].stages() {
			fmt.Fprintf(&buf, "  %10d", v)
		}
		fmt.Fprintf(&buf, "\n")
	}

	if len(d.Work) > 0 {
		names := make([]string, 0, len(d.Work))
		for k := range d.Work {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&buf, "└─ work:")
		for _, k := range names {
			fmt.Fprintf(&buf, " %s=%d", k, d.Work[k])
		}
		fmt.Fprintf(&buf, "\n")
	} else {
		fmt.Fprintf(&buf, "└─ work: (none recorded)\n")
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
