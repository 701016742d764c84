package smartpsi

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
)

func TestPlanTimingMaxTime(t *testing.T) {
	pt := newPlanTiming(3)
	// No observations anywhere: the floor applies.
	if got := pt.maxTime(psi.Optimistic, 0); got != minDeadline {
		t.Errorf("empty maxTime = %v, want floor %v", got, minDeadline)
	}
	// Direct observation: 2x the average.
	pt.record(psi.Optimistic, 0, 10*time.Millisecond, false)
	pt.record(psi.Optimistic, 0, 20*time.Millisecond, false)
	if got := pt.maxTime(psi.Optimistic, 0); got != 30*time.Millisecond {
		t.Errorf("maxTime = %v, want 30ms (2x avg of 15ms)", got)
	}
	// Missing mode borrows the other method's average for the plan.
	if got := pt.maxTime(psi.Pessimistic, 0); got != 30*time.Millisecond {
		t.Errorf("borrowed maxTime = %v, want 30ms", got)
	}
	// Missing plan falls back to any recorded average.
	if got := pt.maxTime(psi.Pessimistic, 2); got != 30*time.Millisecond {
		t.Errorf("fallback maxTime = %v, want 30ms", got)
	}
	// Tiny averages are floored.
	pt2 := newPlanTiming(1)
	pt2.record(psi.Pessimistic, 0, time.Nanosecond, false)
	if got := pt2.maxTime(psi.Pessimistic, 0); got != minDeadline {
		t.Errorf("floored maxTime = %v, want %v", got, minDeadline)
	}
}

// slowFixture builds a dense blob whose 7-cycle query takes well over
// minDeadline per candidate, plus the query itself. Every node has label
// 0, except that with rare > 0 data nodes 0..rare-1 and the query's
// pivot have label 1, so the query has rare candidates.
func slowFixture(t *testing.T, rare int) (*graph.Graph, graph.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(400, 8000)
	for i := 0; i < 400; i++ {
		if i < rare {
			b.AddNode(1)
		} else {
			b.AddNode(0)
		}
	}
	for b.NumEdges() < 8000 {
		u, v := graph.NodeID(rng.Intn(400)), graph.NodeID(rng.Intn(400))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	qb := graph.NewBuilder(7, 7)
	for i := 0; i < 7; i++ {
		if i == 0 && rare > 0 {
			qb.AddNode(1)
		} else {
			qb.AddNode(0)
		}
	}
	for i := graph.NodeID(0); i < 7; i++ {
		if err := qb.AddEdge(i, (i+1)%7); err != nil {
			t.Fatal(err)
		}
	}
	q, err := graph.NewQuery(qb.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

// TestPreemptionRecovers drives evaluateOne directly with artificially
// tiny timing averages so state 1 and state 2 both time out and the
// state-3 heuristic fallback must produce the (correct) answer.
func TestPreemptionRecovers(t *testing.T) {
	g, q := slowFixture(t, 0)
	e, err := NewEngine(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := psi.NewEvaluator(g, q, e.sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(q, plan.Heuristic(q, g))
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth for one candidate (dense blob: the cycle exists).
	st := psi.NewState(q.Size())
	want, err := ev.Evaluate(st, c, 0, psi.Pessimistic, psi.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	w := ladderWorker(ev, []*plan.Compiled{c}, time.Time{})
	w.st = st
	w.art.timing.record(psi.Optimistic, 0, time.Nanosecond, false) // floor (200us) applies
	got, err := e.evaluateOne(w, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("preempted evaluation = %v, ground truth %v", got, want)
	}
	flips, fallbacks := w.Ladder[obs.LadderOpposite].Entered, w.Ladder[obs.LadderHeuristic].Entered
	if flips == 0 {
		t.Skip("node evaluated under 200us on this machine; preemption never fired")
	}
	// If state 2 also timed out we must have fallen back.
	if fallbacks > flips {
		t.Errorf("fallbacks %d > flips %d", fallbacks, flips)
	}
}

// TestPreemptionDisabled: with DisablePreemption no deadline is set and
// the counters stay zero even on the slow fixture.
func TestPreemptionDisabledCounters(t *testing.T) {
	g, q := slowFixture(t, 0)
	e, err := NewEngine(g, Options{Seed: 4, DisablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 || res.Fallbacks != 0 {
		t.Errorf("preemption disabled but flips=%d fallbacks=%d", res.Flips, res.Fallbacks)
	}
}
