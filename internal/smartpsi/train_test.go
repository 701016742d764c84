package smartpsi

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/psi"
	"repro/internal/workload"
)

// sweepOracle is §4.2.2's sweep with no bound but the round's limit:
// every plan runs until it finishes or passes the limit, and the plan
// that used the fewest units, the lowest index among equals, labels the
// node. tied reports that a later plan matched the winner's units.
func sweepOracle(art *artifact, st *psi.State, u graph.NodeID) (valid bool, best int, tied bool, err error) {
	var used int64
	for limit := int64(sweepStartUnits); used < 32*sweepStartUnits; limit *= 2 {
		best, bestUnits := -1, int64(0)
		for i, c := range art.compiled {
			before := st.Stats().Units()
			ok, err := art.ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{MaxSteps: limit})
			units := st.Stats().Units() - before
			used += units
			if err == psi.ErrDeadline {
				continue
			}
			if err != nil {
				return false, -1, false, err
			}
			switch {
			case best < 0 || units < bestUnits:
				best, bestUnits, valid, tied = i, units, ok, false
			case units == bestUnits:
				tied = true
			}
		}
		if best >= 0 {
			return valid, best, tied, nil
		}
	}
	ok, err := art.ev.Evaluate(st, art.compiled[0], u, psi.Pessimistic, psi.Limits{})
	return ok, -1, false, err
}

// TestSweepBoundKeepsLabels: bounding each plan of a sweep round by the
// leader's units stops only plans that can no longer be the fastest, so
// on every sweep node trainOne gives the unbounded sweep's verdict and
// fastest plan, ties to the lowest index included.
func TestSweepBoundKeepsLabels(t *testing.T) {
	var nodes, ties int
	var cut int64
	for _, dataset := range []string{"human", "cora"} {
		spec, err := gen.DefaultSpec(dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := gen.MustGenerate(spec)
		e, err := NewEngine(g, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for size := 4; size <= 7; size++ {
			qs, err := workload.ExtractQueries(g, size, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range qs {
				art, err := e.prepare(q, rng)
				if err != nil {
					t.Fatal(err)
				}
				art.timing = newPlanTiming(len(art.compiled))
				bounded, unbounded := psi.NewState(q.Size()), psi.NewState(q.Size())
				cands := g.NodesWithLabel(q.G.Label(q.Pivot))
				for _, u := range cands[:min(len(cands), planSweepNodes)] {
					valid, best, _, err := e.trainOne(art, bounded, u, time.Time{}, false)
					if err != nil {
						t.Fatal(err)
					}
					wantValid, wantBest, tied, err := sweepOracle(art, unbounded, u)
					if err != nil {
						t.Fatal(err)
					}
					if valid != wantValid || best != wantBest {
						t.Errorf("%s size %d query %d node %d: trainOne (valid %v, plan %d), unbounded sweep (valid %v, plan %d)",
							dataset, size, qi, u, valid, best, wantValid, wantBest)
					}
					nodes++
					if tied {
						ties++
					}
				}
				cut += bounded.Stats().Deadlines - unbounded.Stats().Deadlines
			}
		}
	}
	t.Logf("%d sweep nodes, %d with a tie for the fastest plan, %d plan runs cut by the bound", nodes, ties, cut)
	if ties == 0 || cut <= 0 {
		t.Errorf("fixture: %d ties, %d plan runs cut by the bound; want both", ties, cut)
	}
}
