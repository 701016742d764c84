package psi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/plan"
)

// fillDistinct sets every Stats field to a distinct non-zero value and
// returns the filled struct. It fails the test if a field is not an
// int64 counter (the Stats contract).
func fillDistinct(t *testing.T, base int64) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s; every Stats field must be an int64 counter", typ.Field(i).Name, f.Kind())
		}
		f.SetInt(base + int64(i))
	}
	return s
}

// TestObsStatsMergeCoversAllFields is the reflection guard of the
// canonical merge: a Stats field added without extending Add fails
// here, before any worker pool silently drops its counts.
func TestObsStatsMergeCoversAllFields(t *testing.T) {
	src := fillDistinct(t, 1)
	typ := reflect.TypeOf(src)

	var dst Stats
	dst.Add(src)
	dst.Add(src) // twice: catches `=` where `+=` was meant
	got := reflect.ValueOf(dst)
	for i := 0; i < got.NumField(); i++ {
		want := 2 * (1 + int64(i))
		if g := got.Field(i).Int(); g != want {
			t.Errorf("Stats.Add does not merge field %s: got %d after two merges, want %d — extend Add (and statsPublishers)",
				typ.Field(i).Name, g, want)
		}
	}
}

// TestObsPublishStatsCoversAllFields asserts the obs bridge publishes
// every Stats field to its own counter. Coverage is established by
// probing: each field is set alone and must be read by exactly one
// publisher, so a failure names the forgotten fields instead of just
// reporting a count mismatch.
func TestObsPublishStatsCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	n := typ.NumField()
	var missing, shared []string
	for i := 0; i < n; i++ {
		var s Stats
		reflect.ValueOf(&s).Elem().Field(i).SetInt(7)
		readers := 0
		for _, p := range statsPublishers {
			if p.get(s) != 0 {
				readers++
			}
		}
		switch readers {
		case 1:
		case 0:
			missing = append(missing, typ.Field(i).Name)
		default:
			shared = append(shared, typ.Field(i).Name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("statsPublishers does not publish Stats fields %v; map each new field to its own obs counter", missing)
	}
	if len(shared) > 0 {
		t.Fatalf("Stats fields %v are read by multiple statsPublishers entries; each field must feed exactly one counter", shared)
	}
	if len(statsPublishers) != n {
		t.Fatalf("statsPublishers has %d entries for %d Stats fields; some publisher reads no field", len(statsPublishers), n)
	}
	seen := make(map[*obs.Counter]int)
	for i, p := range statsPublishers {
		if p.counter == nil {
			t.Fatalf("statsPublishers[%d] has a nil counter", i)
		}
		if prev, dup := seen[p.counter]; dup {
			t.Fatalf("statsPublishers[%d] and [%d] share counter %s", prev, i, p.counter.Name())
		}
		seen[p.counter] = i
	}

	src := fillDistinct(t, 10)
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	before := make([]int64, n)
	for i, p := range statsPublishers {
		before[i] = p.counter.Value()
	}
	PublishStats(src)
	v := reflect.ValueOf(src)
	for i, p := range statsPublishers {
		delta := p.counter.Value() - before[i]
		if delta != 10+int64(i) {
			t.Errorf("publisher %d (%s): delta %d, want %d — check get func ordering against Stats field %s",
				i, p.counter.Name(), delta, 10+int64(i), v.Type().Field(i).Name)
		}
	}

	// Disabled: no counter moves.
	obs.Enable(false)
	mid := statsPublishers[0].counter.Value()
	PublishStats(src)
	if got := statsPublishers[0].counter.Value(); got != mid {
		t.Errorf("PublishStats with collection disabled moved %s by %d", statsPublishers[0].counter.Name(), got-mid)
	}
}

// funnelGraph is a random graph of n nodes with about m edges, the nodes
// carrying one of labels labels and the edges, when edgeLabels > 0, one
// of edgeLabels labels.
func funnelGraph(n, m, labels, edgeLabels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		l := graph.NoLabel
		if edgeLabels > 0 {
			l = graph.Label(rng.Intn(edgeLabels))
		}
		_ = b.AddLabeledEdge(u, v, l)
	}
	return b.MustBuild()
}

// funnelGraphs are the shapes TestObsFunnelDerived draws from: one with
// edge labels, one dense enough for the super-optimistic cap, and one
// sparse and label-rich enough for Proposition 3.2 to prune.
var funnelGraphs = []struct{ n, m, labels, edgeLabels int }{
	{40, 240, 2, 2},
	{30, 300, 1, 0},
	{60, 90, 4, 0},
}

// TestObsFunnelDerived derives the candidate funnel from the per-depth
// rows of queries induced from funnelGraphs, unfiltered and Filtered, in
// both modes, with and without the super-optimistic pass, unbounded and
// under a work ceiling that aborts evaluations mid-search. The stages
// never increase; generated sums to the flat Candidates; every depth
// reports the evaluations' Matches, which are the true verdicts; every
// pivot that survives the row-0 checks is descended into; and the
// rejections plus the prunes account for what generated loses by sig-ok.
func TestObsFunnelDerived(t *testing.T) {
	var seen Stats
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := funnelGraphs[seed%int64(len(funnelGraphs))]
		g := funnelGraph(shape.n, shape.m, shape.labels, shape.edgeLabels, rng)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		size := min(len(comp), 3+rng.Intn(3))
		if size < 2 {
			continue
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:size])
		if err != nil {
			t.Fatal(err)
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
		if err != nil {
			t.Fatal(err)
		}
		unfiltered := newEval(t, g, q)
		c := plan.MustCompile(q, plan.Heuristic(q, g))
		for _, e := range []*Evaluator{unfiltered, unfiltered.Filtered()} {
			for _, mode := range []Mode{Optimistic, Pessimistic} {
				for _, super := range []bool{false, true} {
					for _, maxSteps := range []int64{0, 6} {
						st := NewState(q.Size())
						var valid int64
						for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
							if ok, err := e.evaluate(st, c, u, mode, super, Limits{MaxSteps: maxSteps}); ok && err == nil {
								valid++
							}
						}
						total := st.Stats()
						seen.Add(total)
						rows := Funnel(st.Depths())
						where := func() string {
							return fmt.Sprintf("seed %d %v super=%v maxSteps=%d filtered=%v", seed, mode, super, maxSteps, e != unfiltered)
						}
						if len(rows) != q.Size() {
							t.Fatalf("%s: %d funnel rows for a %d-node query", where(), len(rows), q.Size())
						}
						if err := invariant.CheckFunnel(rows); err != nil {
							t.Fatalf("%s: %v", where(), err)
						}
						if tot := obs.FunnelTotals(rows...); tot.Generated != total.Candidates {
							t.Errorf("%s: generated sums to %d, Candidates %d", where(), tot.Generated, total.Candidates)
						}
						if total.Matches != valid {
							t.Errorf("%s: Matches %d, %d true verdicts", where(), total.Matches, valid)
						}
						if rows[0].Recursed != rows[0].SigOK {
							t.Errorf("%s: depth 0 recursed %d, sig-ok %d", where(), rows[0].Recursed, rows[0].SigOK)
						}
						for d, s := range st.Depths() {
							f := rows[d]
							if f.Matched != total.Matches {
								t.Errorf("%s: depth %d matched %d, Matches %d", where(), d, f.Matched, total.Matches)
							}
							if lost := s.EdgeLabelRejects + s.InjectivityRejects + s.AdjacencyRejects + s.FilterPrunes + s.DegPrunes + s.SigPrunes; lost != f.Generated-f.SigOK {
								t.Errorf("%s: depth %d: rejections and prunes %d, generated - sig-ok %d", where(), d, lost, f.Generated-f.SigOK)
							}
						}
					}
				}
			}
		}
	}
	// Each term of the derivation was exercised.
	for name, n := range map[string]int64{"EdgeLabelRejects": seen.EdgeLabelRejects, "InjectivityRejects": seen.InjectivityRejects,
		"AdjacencyRejects": seen.AdjacencyRejects, "FilterPrunes": seen.FilterPrunes, "DegPrunes": seen.DegPrunes, "SigPrunes": seen.SigPrunes,
		"Deadlines": seen.Deadlines, "CapHits": seen.CapHits, "Matches": seen.Matches} {
		if n == 0 {
			t.Errorf("no generated query counted %s", name)
		}
	}
}

// TestLastDepthEndsAtFirstMatch checks that the last plan depth binds
// the first candidate that passes the edge-label, injectivity and
// adjacency checks: it runs no filter, degree, signature or score test,
// and the candidates that pass there are exactly the evaluations'
// matches (at most one per visit), unfiltered and Filtered, in both
// modes, with and without the super-optimistic pass and under a work
// ceiling.
func TestLastDepthEndsAtFirstMatch(t *testing.T) {
	var passed int64
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := funnelGraphs[seed%int64(len(funnelGraphs))]
		g := funnelGraph(shape.n, shape.m, shape.labels, shape.edgeLabels, rng)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		size := min(len(comp), 3+rng.Intn(3))
		if size < 2 {
			continue
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:size])
		if err != nil {
			t.Fatal(err)
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
		if err != nil {
			t.Fatal(err)
		}
		unfiltered := newEval(t, g, q)
		c := plan.MustCompile(q, plan.Heuristic(q, g))
		for _, e := range []*Evaluator{unfiltered, unfiltered.Filtered()} {
			for _, mode := range []Mode{Optimistic, Pessimistic} {
				for _, super := range []bool{false, true} {
					for _, maxSteps := range []int64{0, 6} {
						st := NewState(q.Size())
						for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
							_, _ = e.evaluate(st, c, u, mode, super, Limits{MaxSteps: maxSteps})
						}
						last := st.Depths()[q.Size()-1]
						pass := last.Candidates - last.EdgeLabelRejects - last.InjectivityRejects - last.AdjacencyRejects
						if last.FilterPrunes != 0 || last.DegPrunes != 0 || last.SigPrunes != 0 || last.ScoreCalcs != 0 || last.Sorts != 0 {
							t.Errorf("seed %d %v super=%v maxSteps=%d: last depth ran a filter, degree, signature or score test: %+v", seed, mode, super, maxSteps, last)
						}
						if m := st.Stats().Matches; pass != m {
							t.Errorf("seed %d %v super=%v maxSteps=%d: %d last-depth candidates passed, %d matches", seed, mode, super, maxSteps, pass, m)
						}
						passed += pass
					}
				}
			}
		}
	}
	if passed == 0 {
		t.Error("no generated query reached its last depth")
	}
}
