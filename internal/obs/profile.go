package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// This file implements the per-query execution profile — an EXPLAIN
// ANALYZE for PSI queries. A sealed Profile records, for one SmartPSI
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
// The engine counts all of it in plain fields of its own result and
// seals the profile once, when the query ends; the funnel is derived
// then from the work the PSI evaluator counts per plan depth on every
// path (psi.Funnel). Until then a profile holds only its identity and
// start time.

// StageNames are the funnel's stage names in pipeline order, aligned
// with FunnelDepth.Stages. Each stage counts the candidates that
// *survived* up to that point, so within a depth the counts are
// monotone non-increasing (the invariant pinned by
// invariant.CheckFunnel).
var StageNames = [5]string{"generated", "deg-ok", "sig-ok", "recursed", "matched"}

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

// Stages returns the stage counts in pipeline order, aligned with
// StageNames. invariant.CheckFunnel iterates these rather than the
// named fields so a new stage cannot be added without extending the
// monotonicity check.
func (d *FunnelDepth) Stages() [5]int64 {
	return [5]int64{d.Generated, d.DegOK, d.SigOK, d.Recursed, d.Matched}
}

// FunnelTotals sums funnel rows stage by stage: a query's rows across
// depths, or totals across queries.
func FunnelTotals(rows ...FunnelDepth) FunnelDepth {
	var t FunnelDepth
	for _, r := range rows {
		t.Generated += r.Generated
		t.DegOK += r.DegOK
		t.SigOK += r.SigOK
		t.Recursed += r.Recursed
		t.Matched += r.Matched
	}
	return t
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

// Profile is one query's execution profile. It carries the query's
// identity from Recorder.Start and, once Seal is called, the finished
// query's record. Methods are safe for concurrent use and nil-safe, so
// call sites can hold the result of Recorder.Start (nil when collection
// is off) unconditionally.
type Profile struct {
	rec *Recorder
	mu  sync.Mutex
	d   ProfileData // identity only until d.Finished
}

// ID returns the recorder-assigned sequence number (0 for nil).
func (p *Profile) ID() uint64 { return p.Snapshot().ID }

// Name returns the label given at Start.
func (p *Profile) Name() string { return p.Snapshot().Name }

// Duration returns the sealed duration, or the time since start while
// the query runs.
func (p *Profile) Duration() time.Duration { return p.Snapshot().Duration() }

// Seal records the finished query and admits the profile to its
// recorder's slowest set. d carries the query's facts; Seal fills in the
// identity (ID, name, start), marks d finished and, unless
// d.DurationNanos is set, times it from the start. A request
// ID or fingerprint left empty in d keeps the one given at Start. Only
// the first Seal counts.
func (p *Profile) Seal(d ProfileData) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.d.Finished {
		p.mu.Unlock()
		return
	}
	d.ID, d.Name, d.Start, d.Finished = p.d.ID, p.d.Name, p.d.Start, true
	d.RequestID = cmp.Or(d.RequestID, p.d.RequestID)
	d.Fingerprint = cmp.Or(d.Fingerprint, p.d.Fingerprint)
	if d.DurationNanos == 0 {
		d.DurationNanos = time.Since(d.Start).Nanoseconds()
	}
	p.d = d
	p.mu.Unlock()
	p.rec.admit(p)
}

// ProfileData is a point-in-time copy of a Profile: plain data, JSON-
// ready, and the input of the text renderer. Durations are nanoseconds
// in JSON.
type ProfileData struct {
	ID            uint64           `json:"id"`
	Name          string           `json:"name"`
	RequestID     string           `json:"request_id,omitempty"`
	Fingerprint   string           `json:"fingerprint,omitempty"`
	Start         time.Time        `json:"start"`
	DurationNanos int64            `json:"duration_nanos"`
	Finished      bool             `json:"finished"`
	Method        string           `json:"method"`
	Candidates    int              `json:"candidates"`
	Bindings      int              `json:"bindings"`
	TrainedNodes  int              `json:"trained_nodes"`
	PlanClasses   int              `json:"plan_classes"`
	BetaScored    int64            `json:"beta_scored"` // training-sweep nodes model β was scored on
	BetaTop1      int64            `json:"beta_top1"`   // those where β picked the sweep's fastest plan
	TrainNanos    int64            `json:"train_nanos"`
	FitNanos      int64            `json:"fit_nanos"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	ModePredicted map[string]int64 `json:"mode_predicted,omitempty"`
	PlanChosen    []int64          `json:"plan_chosen,omitempty"`
	Ladder        []LadderRung     `json:"ladder"`
	Funnel        []FunnelDepth    `json:"funnel,omitempty"`
	Work          map[string]int64 `json:"work,omitempty"`
	Error         string           `json:"error,omitempty"`
}

// Snapshot returns the profile's record: the sealed query, or while it
// runs its identity and elapsed time. A sealed record's maps and slices
// are shared; readers must not modify them.
func (p *Profile) Snapshot() ProfileData {
	if p == nil {
		return ProfileData{}
	}
	p.mu.Lock()
	d := p.d
	p.mu.Unlock()
	if !d.Finished {
		d.DurationNanos = time.Since(d.Start).Nanoseconds()
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
	if d.BetaScored > 0 {
		fmt.Fprintf(&buf, "│    β top-1 %d/%d (in-sample)\n", d.BetaTop1, d.BetaScored)
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

	fmt.Fprintf(&buf, "├─ recovery ladder (§4.3)\n")
	for i, r := range d.Ladder {
		name := fmt.Sprintf("rung %d", i+1)
		if i < NumLadderRungs {
			name = fmt.Sprintf("rung %d %-9s", i+1, ladderRungNames[i])
		}
		fmt.Fprintf(&buf, "│    %s entered=%-7d resolved=%-7d total=%s\n",
			name, r.Entered, r.Resolved, time.Duration(r.Nanos).Round(time.Microsecond))
	}

	fmt.Fprintf(&buf, "├─ candidate funnel (per plan depth; Prop 3.2 prunes = deg-ok − sig-ok)\n")
	fmt.Fprintf(&buf, "│    %5s", "depth")
	for _, s := range StageNames {
		fmt.Fprintf(&buf, "  %10s", s)
	}
	fmt.Fprintf(&buf, "\n")
	for depth := range d.Funnel {
		fmt.Fprintf(&buf, "│    %5d", depth)
		for _, v := range d.Funnel[depth].Stages() {
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
