package smartpsi

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json, testdata/verdicts.json and testdata/warm.json from this tree's engine")

// ledgerPath is the committed work ledger TestWorkLedger compares
// against.
var ledgerPath = filepath.Join("testdata", "ledger.json")

// ledgerEntry is what one query population cost and answered: every
// search counter, each query's rows summed (Counts.Work) and the sums
// added up, the ladder entries per rung, the training-set sizes and plan
// classes, a hash of every query's bindings, and the candidate funnel
// summed per plan depth.
type ledgerEntry struct {
	Queries       int
	Work          psi.Stats
	LadderEntered [obs.NumLadderRungs]int64
	TrainedNodes  int
	PlanClasses   int
	BindingsFNV   string
	Funnel        []obs.FunnelDepth
}

// ledgerPopulation is a fixed internal/workload query set (seed 1) on a
// dataset at its default scale.
type ledgerPopulation struct {
	dataset string
	sizes   []int
	perSize int
}

var ledgerPopulations = []ledgerPopulation{
	{dataset: "human", sizes: []int{4, 5, 6, 7}, perSize: 5},
	{dataset: "youtube", sizes: []int{4}, perSize: 12},
	{dataset: "cora", sizes: []int{4, 5, 6, 7}, perSize: 5},
	{dataset: "twitter", sizes: []int{4}, perSize: 8},
}

// ledgerEngines keeps each dataset's engine across -count repeats: with
// the prepared cache off an engine carries nothing from one query to the
// next, and under -race YouTube's generation is a third of a repeat.
var ledgerEngines = map[string]*Engine{}

// ledgerQueries returns pop's engine, at one worker with the prepared
// cache off, and its queries.
func ledgerQueries(t *testing.T, pop ledgerPopulation) (*Engine, []graph.Query) {
	t.Helper()
	e := ledgerEngines[pop.dataset]
	if e == nil {
		spec, err := gen.DefaultSpec(pop.dataset)
		if err != nil {
			t.Fatal(err)
		}
		if e, err = NewEngine(gen.MustGenerate(spec), Options{Seed: 1, Threads: 1, DisablePreparedCache: true}); err != nil {
			t.Fatal(err)
		}
		ledgerEngines[pop.dataset] = e
	}
	rng := rand.New(rand.NewSource(1))
	var qs []graph.Query
	for _, size := range pop.sizes {
		batch, err := workload.ExtractQueries(e.Graph(), size, pop.perSize, rng)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, batch...)
	}
	return e, qs
}

// measureLedger runs pop's queries one at a time, so every query is
// prepared and trained, and sums what they did. The funnel is each
// query's, derived from its per-depth work, summed per depth.
func measureLedger(t *testing.T, pop ledgerPopulation) ledgerEntry {
	t.Helper()
	e, qs := ledgerQueries(t, pop)
	h := fnv.New64a()
	var le ledgerEntry
	for _, q := range qs {
		res := mustEvaluate(t, e, q)
		le.Queries++
		le.Work.Add(res.Work())
		for i, r := range res.Ladder {
			le.LadderEntered[i] += r.Entered
		}
		le.TrainedNodes += res.TrainedNodes
		le.PlanClasses += res.PlanClasses
		for d, row := range psi.Funnel(res.Depths) {
			if d == len(le.Funnel) {
				le.Funnel = append(le.Funnel, obs.FunnelDepth{})
			}
			le.Funnel[d] = obs.FunnelTotals(le.Funnel[d], row)
		}
		hashBindings(h, res.Bindings)
	}
	le.BindingsFNV = fmt.Sprintf("%016x", h.Sum64())
	return le
}

// hashBindings adds one query's bindings to h, count first, so a
// binding moving between queries changes the hash.
func hashBindings(h hash.Hash64, bindings []graph.NodeID) {
	_ = binary.Write(h, binary.LittleEndian, int64(len(bindings)))
	for _, b := range bindings {
		_ = binary.Write(h, binary.LittleEndian, int64(b))
	}
}

// TestWorkLedger pins the exact work of fixed Human, YouTube, Cora and
// Twitter populations. Every engine budget counts work, so the ledger
// reads the same on any machine; a change that moves the work regenerates
// it with `go test ./internal/smartpsi/ -run WorkLedger -update`, and the
// file's diff is the change's exact work claim.
func TestWorkLedger(t *testing.T) {
	got := make(map[string]ledgerEntry, len(ledgerPopulations))
	for _, pop := range ledgerPopulations {
		got[pop.dataset] = measureLedger(t, pop)
	}
	if *updateLedger {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]ledgerEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, pop := range ledgerPopulations {
		if g, w := got[pop.dataset], want[pop.dataset]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s ledger:\n  got  %+v\n  want %+v\n(if the change is meant to move the work, regenerate with -update)", pop.dataset, g, w)
		}
	}
}

// verdictsPath is the committed verdict pin TestModeVerdicts compares
// against.
var verdictsPath = filepath.Join("testdata", "verdicts.json")

// verdictEntry is what one population's pivot candidates answered: how
// many were evaluated and valid, and a hash of every verdict in order.
type verdictEntry struct {
	Candidates  int
	Valid       int
	VerdictsFNV string
}

// TestModeVerdicts evaluates every pivot candidate of every ledger query
// on its heuristic plan, with no limits, in each psi evaluation method:
// optimistic, pessimistic, optimistic without the super-optimistic pass,
// and pessimistic without signature pruning, each on the query's
// evaluator and on its Filtered copy. The eight must agree on each
// candidate, and the verdicts are pinned per dataset, so a change to the
// search that moves an answer fails here even when every method moves
// together. Regenerate with `go test ./internal/smartpsi/ -run
// ModeVerdicts -update`.
func TestModeVerdicts(t *testing.T) {
	got := make(map[string]verdictEntry, len(ledgerPopulations))
	for _, pop := range ledgerPopulations {
		e, qs := ledgerQueries(t, pop)
		st := psi.NewState(8)
		h := fnv.New64a()
		var ve verdictEntry
		for qi, q := range qs {
			unfiltered, err := psi.NewEvaluator(e.g, q, e.sigs, nil)
			if err != nil {
				t.Fatal(err)
			}
			evs := [2]*psi.Evaluator{unfiltered, unfiltered.Filtered()}
			c := plan.MustCompile(q, plan.Heuristic(q, e.g))
			cands := e.g.NodesWithLabel(q.G.Label(q.Pivot))
			_ = binary.Write(h, binary.LittleEndian, int64(len(cands)))
			for _, u := range cands {
				var v [8]bool
				var errs [8]error
				for i, ev := range evs {
					v[4*i], errs[4*i] = ev.Evaluate(st, c, u, psi.Optimistic, psi.Limits{})
					v[4*i+1], errs[4*i+1] = ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{})
					v[4*i+2], errs[4*i+2] = ev.EvaluateNoSuper(st, c, u, psi.Optimistic, psi.Limits{})
					v[4*i+3], errs[4*i+3] = ev.EvaluateNoSigPrune(st, c, u, psi.Limits{})
				}
				for i, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
					if v[i] != v[0] {
						t.Fatalf("%s query %d, pivot candidate %d: optimistic, pessimistic, no-super, no-sig-prune %v unfiltered, %v filtered",
							pop.dataset, qi, u, v[:4], v[4:])
					}
				}
				ve.Candidates++
				b := byte(0)
				if v[0] {
					ve.Valid++
					b = 1
				}
				_, _ = h.Write([]byte{b})
			}
		}
		ve.VerdictsFNV = fmt.Sprintf("%016x", h.Sum64())
		got[pop.dataset] = ve
	}
	if *updateLedger {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(verdictsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]verdictEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, pop := range ledgerPopulations {
		if g, w := got[pop.dataset], want[pop.dataset]; g != w {
			t.Errorf("%s verdicts: got %+v, want %+v", pop.dataset, g, w)
		}
	}
}

// warmPath is the committed warm-work pin TestWarmSightings compares
// against.
var warmPath = filepath.Join("testdata", "warm.json")

// warmEntry is what one population's third sightings cost and answered:
// the summed work units, the candidates the filter refused, the ladder
// entries per rung, and a hash of every query's bindings.
type warmEntry struct {
	Queries       int
	Units         int64
	Filtered      int64
	LadderEntered [obs.NumLadderRungs]int64
	BindingsFNV   string
}

// TestWarmSightings pins the work of the ledger queries run warm: each
// query is evaluated three times on an engine with the prepared cache on
// (over the ledger engine's graph and signatures), and the third
// sighting, served from the artifact the second one kept, is measured.
// Its bindings must hash to the cold ledger's, and the rest is pinned in
// testdata/warm.json, regenerated with `go test ./internal/smartpsi/ -run
// WarmSightings -update`.
func TestWarmSightings(t *testing.T) {
	buf, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var ledger map[string]ledgerEntry
	if err := json.Unmarshal(buf, &ledger); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]warmEntry, len(ledgerPopulations))
	for _, pop := range ledgerPopulations {
		cold, qs := ledgerQueries(t, pop)
		e := newEngine(cold.g, cold.sigs, Options{Seed: 1, Threads: 1})
		h := fnv.New64a()
		var we warmEntry
		for qi, q := range qs {
			var res *Result
			for sighting := 1; sighting <= 3; sighting++ {
				res = mustEvaluate(t, e, q)
			}
			if res.UsedML && !res.Warm {
				t.Fatalf("%s query %d: third sighting served cold", pop.dataset, qi)
			}
			we.Queries++
			we.Units += res.Work().Units()
			we.Filtered += res.Filtered
			for i, r := range res.Ladder {
				we.LadderEntered[i] += r.Entered
			}
			hashBindings(h, res.Bindings)
		}
		we.BindingsFNV = fmt.Sprintf("%016x", h.Sum64())
		if want := ledger[pop.dataset].BindingsFNV; we.BindingsFNV != want {
			t.Errorf("%s: warm bindings hash %s, cold ledger %s", pop.dataset, we.BindingsFNV, want)
		}
		got[pop.dataset] = we
	}
	if *updateLedger {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(warmPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if buf, err = os.ReadFile(warmPath); err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]warmEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, pop := range ledgerPopulations {
		if g, w := got[pop.dataset], want[pop.dataset]; g != w {
			t.Errorf("%s warm sightings:\n  got  %+v\n  want %+v\n(if the change is meant to move the work, regenerate with -update)", pop.dataset, g, w)
		}
	}
}
