package psi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/signature"
)

// floatEntry, floatSparse, floatSatisfies and floatScore are the
// evaluator's float64 signature path from before the signatures became
// uint32 units: the statements NewEvaluator, satisfies and score ran on
// float64 rows, renamed. floatSparse returns a query row's positive
// entries and its prune list of the highest weights.
type floatEntry struct {
	label  int32
	weight float64
}

func floatSparse(row []float64) (sparse, prune []floatEntry) {
	for l, w := range row {
		if w > 0 {
			sparse = append(sparse, floatEntry{label: int32(l), weight: w})
		}
	}
	pr := append([]floatEntry(nil), sparse...)
	sort.Slice(pr, func(i, j int) bool { return pr[i].weight > pr[j].weight })
	if len(pr) > maxPruneEntries {
		pr = pr[:maxPruneEntries]
	}
	return sparse, pr
}

func floatSatisfies(dataRow []float64, prune []floatEntry) bool {
	for _, entry := range prune {
		if dataRow[entry.label] < entry.weight {
			return false
		}
	}
	return true
}

func floatScore(dataRow []float64, entries []floatEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	var sum float64
	for _, entry := range entries {
		sum += dataRow[entry.label] / entry.weight
	}
	return sum / float64(len(entries))
}

// TestUnitsMatchFloatEvaluator: on generated graphs, for D in 0..3 and
// both signature methods, every (data node, query node) pair gets the
// same satisfies verdict and a bit-identical score from the evaluator's
// integer form as from its float64 form, so prunes and optimistic
// orderings are unchanged. Where no prune cap applies, the verdict also
// equals signature.Satisfies on the full rows.
func TestUnitsMatchFloatEvaluator(t *testing.T) {
	youtube, err := gen.ScaledSpec("youtube", 2000)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{gen.MustGenerate(youtube), graphtest.Random(200, 900, 5, 3)}
	for gi, g := range graphs {
		rng := rand.New(rand.NewSource(int64(gi)))
		for trial := 0; trial < 4; trial++ {
			comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
			size := min(len(comp), 3+rng.Intn(8))
			sub, _, err := graph.InducedSubgraph(g, comp[:size])
			if err != nil {
				t.Fatal(err)
			}
			q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
			if err != nil {
				t.Fatal(err)
			}
			width := max(g.NumLabels(), sub.NumLabels())
			for depth := 0; depth <= 3; depth++ {
				for _, m := range []signature.Method{signature.Matrix, signature.Exploration} {
					ds := signature.MustBuild(g, depth, width, m)
					qs := signature.MustBuild(sub, depth, width, m)
					e, err := NewEvaluator(g, q, ds, qs)
					if err != nil {
						t.Fatal(err)
					}
					for v := graph.NodeID(0); int(v) < sub.NumNodes(); v++ {
						qRow := qs.Row(v)
						sparse, prune := floatSparse(qRow)
						for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
							dRow := ds.Row(u)
							got, want := e.satisfies(ds.Scaled(u), v), floatSatisfies(dRow, prune)
							if got != want {
								t.Fatalf("graph %d D=%d %v: data %d query %d: satisfies %v, float %v", gi, depth, m, u, v, got, want)
							}
							if len(sparse) <= maxPruneEntries && got != signature.Satisfies(dRow, qRow) {
								t.Fatalf("graph %d D=%d %v: data %d query %d: satisfies %v disagrees with signature.Satisfies", gi, depth, m, u, v, got)
							}
							if s, f := e.score(ds.Scaled(u), v), floatScore(dRow, sparse); math.Float64bits(s) != math.Float64bits(f) {
								t.Fatalf("graph %d D=%d %v: data %d query %d: score %v, float %v", gi, depth, m, u, v, s, f)
							}
						}
					}
				}
			}
		}
	}
}
