package smartpsi

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/workload"
)

// TestAgainstTurboIsoPlus cross-validates the whole SmartPSI pipeline
// against TurboIso+ — a completely independent engine (region-based
// full-iso machinery, no signatures, no ML) — on a denser generated
// dataset at medium scale.
func TestAgainstTurboIsoPlus(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale cross-engine check")
	}
	spec, err := gen.ScaledSpec("human", 4)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	e, err := NewEngine(g, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for size := 4; size <= 5; size++ {
		for i := 0; i < 2; i++ {
			q, err := workload.ExtractQuery(g, size, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			tip, err := match.NewTurboIsoPlus(g, q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := tip.PivotBindings(match.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			if !slices.Equal(res.Bindings, want) {
				t.Fatalf("size %d query %d: SmartPSI %d bindings, TurboIso+ %d",
					size, i, len(res.Bindings), len(want))
			}
		}
	}
}
