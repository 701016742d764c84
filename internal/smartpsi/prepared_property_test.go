package smartpsi_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph/graphtest"
	"repro/internal/server"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

// TestPreparedColdWarmReference is the cache's exactness property over
// the generators the engine and cluster equivalence tests use: on random
// graphs and extracted queries, every sighting of a query — cold, cold
// and stored, then warm — returns exactly server.Reference's bindings,
// with one worker or two.
func TestPreparedColdWarmReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := graphtest.Random(240, 720, 3, seed)
		ref, err := server.NewReference(g)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := smartpsi.NewEngine(g, smartpsi.Options{Seed: 42, Threads: 1 + int(seed%2)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for size := 3; size <= 6; size++ {
			qs, err := workload.ExtractQueries(g, size, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want, err := ref.Bindings(q)
				if err != nil {
					t.Fatal(err)
				}
				for sighting := 1; sighting <= 4; sighting++ {
					res, err := eng.Evaluate(q)
					if err != nil {
						t.Fatalf("seed %d size %d query %d sighting %d: %v", seed, size, i, sighting, err)
					}
					if !res.UsedML {
						t.Fatalf("seed %d size %d query %d: not on the ML path", seed, size, i)
					}
					if sighting >= 3 && !res.Warm {
						t.Errorf("seed %d size %d query %d sighting %d served cold", seed, size, i, sighting)
					}
					if len(res.Bindings) != len(want) {
						t.Fatalf("seed %d size %d query %d sighting %d (warm=%v): %d bindings, reference %d",
							seed, size, i, sighting, res.Warm, len(res.Bindings), len(want))
					}
					for j, u := range res.Bindings {
						if int64(u) != want[j] {
							t.Fatalf("seed %d size %d query %d sighting %d (warm=%v): binding %d is %d, reference %d",
								seed, size, i, sighting, res.Warm, j, u, want[j])
						}
					}
				}
			}
		}
	}
}
