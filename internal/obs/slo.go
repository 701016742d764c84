package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Declarative SLOs evaluated against the Sampler's windowed rates with
// multi-window burn-rate alerting: an objective's burn rate is its
// windowed bad-event ratio divided by the error budget (1 − target),
// and an alert trips only when both a fast and a slow window burn
// above the threshold — the fast window for responsiveness, the slow
// one so a brief blip cannot page. Alerts walk a
// pending → firing → resolved state machine, are served at /alertz
// with the fast-window delta of each bad counter (which one burns), and
// surface as the obs_alerts_firing gauge.

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Objective declares one SLO. Exactly one of the two shapes is used:
// availability (TotalCounter + BadCounters: ratio of bad events to
// total events) or latency (Histograms + ThresholdSeconds: fraction of
// observations slower than the threshold).
type Objective struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"` // fraction of good events promised, e.g. 0.99

	// Availability shape: windowed bad/total from counters.
	TotalCounter string   `json:"total_counter,omitempty"`
	BadCounters  []string `json:"bad_counters,omitempty"`

	// Latency shape: windowed fraction-over-threshold from histograms.
	Histograms       []string `json:"histograms,omitempty"`
	ThresholdSeconds float64  `json:"threshold_seconds,omitempty"`

	FastWindow time.Duration `json:"-"`
	SlowWindow time.Duration `json:"-"`
	BurnFactor float64       `json:"burn_factor"` // both windows must burn at or above this
	For        time.Duration `json:"-"`           // time an alert stays pending before it fires
}

// serverBadCounters are the serving-path counters that represent a
// query the service failed to serve: load sheds (429), drain
// rejections (503), evaluator panics (500), deadline expiries (504)
// and partial scatter-gather answers (200 with partial=true — the
// client got bindings, but not all of them, so a lost shard burns the
// availability budget and pages like any other failure mode).
var serverBadCounters = []string{
	"server_shed_total",
	"server_drain_rejects_total",
	"server_panics_total",
	"server_deadline_hits_total",
	"server_partial_total",
}

// AvailabilityObjective is the standard serving availability SLO:
// failed queries (sheds, drain rejections, panics, deadline hits,
// partial answers) over server_queries_total. Both count queries, so a
// batch of 32 with 4 shed burns 4/32.
func AvailabilityObjective(target float64, fast, slow time.Duration, burnFactor float64, forDur time.Duration) Objective {
	return Objective{
		Name:         "availability",
		Target:       target,
		TotalCounter: "server_queries_total",
		BadCounters:  serverBadCounters,
		FastWindow:   fast,
		SlowWindow:   slow,
		BurnFactor:   burnFactor,
		For:          forDur,
	}
}

// LatencyObjective is the standard serving latency SLO: the fraction
// of /v1/psi and /v1/psi/batch requests completing within threshold
// must stay at or above target.
func LatencyObjective(threshold time.Duration, target float64, fast, slow time.Duration, burnFactor float64, forDur time.Duration) Objective {
	return Objective{
		Name:             fmt.Sprintf("latency_under_%s", threshold),
		Target:           target,
		Histograms:       []string{"server_psi_seconds", "server_batch_seconds"},
		ThresholdSeconds: threshold.Seconds(),
		FastWindow:       fast,
		SlowWindow:       slow,
		BurnFactor:       burnFactor,
		For:              forDur,
	}
}

// AlertStatus is one objective's externally visible state, as served
// at /alertz.
type AlertStatus struct {
	Name              string    `json:"name"`
	State             string    `json:"state"`
	Target            float64   `json:"target"`
	BurnFactor        float64   `json:"burn_factor"`
	FastWindowSeconds float64   `json:"fast_window_seconds"`
	SlowWindowSeconds float64   `json:"slow_window_seconds"`
	FastBurn          float64   `json:"fast_burn"`
	SlowBurn          float64   `json:"slow_burn"`
	FastWindowSampled bool      `json:"fast_window_sampled"`
	SlowWindowSampled bool      `json:"slow_window_sampled"`
	Since             time.Time `json:"since,omitempty"` // pending or firing start
	LastTransition    time.Time `json:"last_transition,omitempty"`
	EvaluatedAt       time.Time `json:"evaluated_at,omitempty"`
	// BadFast is each bad counter's delta over the fast window, for an
	// availability objective: the counter that drives a burn.
	BadFast map[string]int64 `json:"bad_fast_deltas,omitempty"`
}

// AlertsData is the /alertz JSON document.
type AlertsData struct {
	Schema int           `json:"schema"`
	Firing int           `json:"firing"`
	Alerts []AlertStatus `json:"alerts"`
}

// alertState is one objective's mutable evaluation state.
type alertState struct {
	state          string
	since          time.Time // entered pending/firing
	lastTransition time.Time
	evaluatedAt    time.Time
	fastBurn       float64
	slowBurn       float64
	fastOK         bool
	slowOK         bool
	badFast        map[string]int64
}

// Transition is one alert state change, delivered to OnTransition
// hooks: the diagnostic-bundle capture trigger (obs.Bundler) keys off
// To == StateFiring.
type Transition struct {
	Objective string
	From, To  string
	At        time.Time
}

// SLOSet evaluates a fixed list of objectives against a Sampler. Wire
// it with NewSLOSet before the sampler starts; each sample triggers an
// evaluation, and Status/WriteJSON/WriteText serve the result.
type SLOSet struct {
	sampler    *Sampler
	objectives []Objective
	firing     *Gauge

	mu     sync.Mutex
	states []alertState
	hooks  []func(Transition)
}

// AlertsFiring is the gauge name exporting the number of firing
// alerts.
const AlertsFiring = "obs_alerts_firing"

// NewSLOSet builds an SLOSet over the sampler's registry, declares each
// objective's counters or histograms to the sampler for its longer
// window, and hooks it into the sampler so every sample re-evaluates
// the objectives.
// Objectives with non-positive windows get defaults (1m fast, 5m
// slow); a non-positive burn factor defaults to 14.4 (the classic
// 2%-of-monthly-budget-per-hour page threshold).
func NewSLOSet(sampler *Sampler, objectives []Objective) *SLOSet {
	objs := make([]Objective, len(objectives))
	copy(objs, objectives)
	for i := range objs {
		if objs[i].FastWindow <= 0 {
			objs[i].FastWindow = time.Minute
		}
		if objs[i].SlowWindow <= 0 {
			objs[i].SlowWindow = 5 * time.Minute
		}
		if objs[i].BurnFactor <= 0 {
			objs[i].BurnFactor = 14.4
		}
	}
	s := &SLOSet{
		sampler:    sampler,
		objectives: objs,
		firing:     sampler.reg.Gauge(AlertsFiring, "number of SLO alerts currently in the firing state (see /alertz)"),
		states:     make([]alertState, len(objs)),
	}
	for i, o := range objs {
		s.states[i].state = StateInactive
		// Both windows read the same rings; the longer one sizes them.
		w := max(o.FastWindow, o.SlowWindow)
		sampler.Keep(w, o.BadCounters...)
		sampler.Keep(w, o.Histograms...)
		if o.TotalCounter != "" {
			sampler.Keep(w, o.TotalCounter)
		}
	}
	sampler.OnSample(s.Evaluate)
	return s
}

// OnTransition registers a hook invoked after every alert state change
// with the transition, outside the set's lock (hooks may call Status or
// AlertsSnapshot). Hooks run synchronously on the evaluating goroutine
// — the sampler tick — in registration order.
func (s *SLOSet) OnTransition(fn func(Transition)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// Evaluate recomputes every objective's burn rates as of now and
// advances the alert state machines. Called from the sampler's
// OnSample hook; exported for deterministic tests.
func (s *SLOSet) Evaluate(now time.Time) {
	s.mu.Lock()
	var transitions []Transition
	nFiring := 0
	for i, o := range s.objectives {
		st := &s.states[i]
		prev := st.state
		st.fastBurn, st.fastOK, st.badFast = s.burn(o, o.FastWindow)
		st.slowBurn, st.slowOK, _ = s.burn(o, o.SlowWindow)
		st.evaluatedAt = now
		cond := st.fastOK && st.slowOK &&
			st.fastBurn >= o.BurnFactor && st.slowBurn >= o.BurnFactor
		switch st.state {
		case StateInactive, StateResolved:
			if cond {
				if o.For <= 0 {
					st.state = StateFiring
				} else {
					st.state = StatePending
				}
				st.since = now
				st.lastTransition = now
			}
		case StatePending:
			switch {
			case !cond:
				st.state = StateInactive
				st.since = time.Time{}
				st.lastTransition = now
			case now.Sub(st.since) >= o.For:
				st.state = StateFiring
				st.lastTransition = now
			}
		case StateFiring:
			if !cond {
				st.state = StateResolved
				st.since = time.Time{}
				st.lastTransition = now
			}
		}
		if st.state == StateFiring {
			nFiring++
		}
		if st.state != prev {
			transitions = append(transitions, Transition{
				Objective: o.Name, From: prev, To: st.state, At: now,
			})
		}
	}
	s.firing.Set(int64(nFiring))
	hooks := s.hooks
	s.mu.Unlock()
	for _, tr := range transitions {
		for _, fn := range hooks {
			fn(tr)
		}
	}
}

// burn computes one objective's burn rate over a window: windowed
// bad-event ratio divided by the error budget, and each bad counter's
// delta. ok is false when the sampler does not yet hold two samples
// inside the window. A window with no traffic burns at 0.
func (s *SLOSet) burn(o Objective, window time.Duration) (rate float64, ok bool, bad map[string]int64) {
	budget := 1 - o.Target
	if budget <= 0 {
		budget = 1e-9 // a 100% target burns infinitely fast on any error
	}
	if o.TotalCounter != "" {
		total, _, ok := s.sampler.CounterDelta(o.TotalCounter, window)
		if !ok {
			return 0, false, nil
		}
		var sum float64
		bad = make(map[string]int64, len(o.BadCounters))
		for _, c := range o.BadCounters {
			if d, _, ok := s.sampler.CounterDelta(c, window); ok {
				sum += d
				bad[c] = int64(d)
			}
		}
		if total <= 0 {
			return 0, true, bad
		}
		return (sum / total) / budget, true, bad
	}
	var total, good float64
	sampled := false
	for _, h := range o.Histograms {
		d, _, ok := s.sampler.HistogramDelta(h, window)
		if !ok {
			continue
		}
		sampled = true
		if frac, ok := FractionAtOrBelow(d, o.ThresholdSeconds); ok {
			total += float64(d.Count)
			good += frac * float64(d.Count)
		}
	}
	if !sampled {
		return 0, false, nil
	}
	if total <= 0 {
		return 0, true, nil
	}
	return ((total - good) / total) / budget, true, nil
}

// Status returns the externally visible state of every objective.
func (s *SLOSet) Status() []AlertStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AlertStatus, len(s.objectives))
	for i, o := range s.objectives {
		st := s.states[i]
		out[i] = AlertStatus{
			Name:              o.Name,
			State:             st.state,
			Target:            o.Target,
			BurnFactor:        o.BurnFactor,
			FastWindowSeconds: o.FastWindow.Seconds(),
			SlowWindowSeconds: o.SlowWindow.Seconds(),
			FastBurn:          st.fastBurn,
			SlowBurn:          st.slowBurn,
			FastWindowSampled: st.fastOK,
			SlowWindowSampled: st.slowOK,
			BadFast:           st.badFast,
			Since:             st.since,
			LastTransition:    st.lastTransition,
			EvaluatedAt:       st.evaluatedAt,
		}
	}
	return out
}

// AlertsSnapshot builds the /alertz document.
func (s *SLOSet) AlertsSnapshot() AlertsData {
	status := s.Status()
	firing := 0
	for _, a := range status {
		if a.State == StateFiring {
			firing++
		}
	}
	return AlertsData{Schema: 1, Firing: firing, Alerts: status}
}

// WriteText renders the /alertz table for a terminal.
func (d AlertsData) WriteText(w io.Writer) error {
	_, _ = fmt.Fprintf(w, "alerts: %d firing / %d objectives\n\n", d.Firing, len(d.Alerts))
	_, _ = fmt.Fprintf(w, "%-28s %-9s %8s %10s %10s  %s\n",
		"OBJECTIVE", "STATE", "TARGET", "FAST-BURN", "SLOW-BURN", "SINCE")
	for _, a := range d.Alerts {
		fast, slow := "n/a", "n/a"
		if a.FastWindowSampled {
			fast = fmt.Sprintf("%.2f", a.FastBurn)
		}
		if a.SlowWindowSampled {
			slow = fmt.Sprintf("%.2f", a.SlowBurn)
		}
		since := ""
		if !a.Since.IsZero() {
			since = a.Since.Format(time.RFC3339)
		}
		if _, err := fmt.Fprintf(w, "%-28s %-9s %8.4f %10s %10s  %s\n",
			a.Name, a.State, a.Target, fast, slow, since); err != nil {
			return err
		}
		if line := badLine(a.BadFast); line != "" {
			if _, err := fmt.Fprintf(w, "  fast-window bad:%s\n", line); err != nil {
				return err
			}
		}
	}
	return nil
}

// badLine renders the nonzero bad-counter deltas, largest first, or ""
// when none moved.
func badLine(bad map[string]int64) string {
	names := make([]string, 0, len(bad))
	for name, n := range bad {
		if n > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		return bad[a] > bad[b] || bad[a] == bad[b] && a < b
	})
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, " %s=%d", name, bad[name])
	}
	return sb.String()
}
