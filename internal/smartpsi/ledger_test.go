package smartpsi

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json from this tree's engine")

// ledgerPath is the committed work ledger TestWorkLedger compares
// against.
var ledgerPath = filepath.Join("testdata", "ledger.json")

// ledgerEntry is what one query population cost and answered: the summed
// Result.Work, the ladder entries per rung, the training-set sizes and
// plan classes, a hash of every query's bindings, and the candidate
// funnel summed per plan depth.
type ledgerEntry struct {
	Queries       int
	Recursions    int64
	Candidates    int64
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
}

// ledgerEngines keeps each dataset's engine across -count repeats: with
// the prepared cache off an engine carries nothing from one query to the
// next, and under -race YouTube's generation is a third of a repeat.
var ledgerEngines = map[string]*Engine{}

// measureLedger runs pop's queries one at a time on an engine at one
// worker with the prepared cache off, so every query is prepared and
// trained, and sums what they did. The funnel is each query's, derived
// from its per-depth work, summed per depth.
func measureLedger(t *testing.T, pop ledgerPopulation) ledgerEntry {
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
	g := e.Graph()
	rng := rand.New(rand.NewSource(1))
	var qs []graph.Query
	for _, size := range pop.sizes {
		batch, err := workload.ExtractQueries(g, size, pop.perSize, rng)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, batch...)
	}
	h := fnv.New64a()
	var le ledgerEntry
	for _, q := range qs {
		res := mustEvaluate(t, e, q)
		le.Queries++
		le.Recursions += res.Work.Recursions
		le.Candidates += res.Work.Candidates
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
		// Each query's bindings, count first, so a binding moving
		// between queries changes the hash.
		_ = binary.Write(h, binary.LittleEndian, int64(len(res.Bindings)))
		for _, b := range res.Bindings {
			_ = binary.Write(h, binary.LittleEndian, int64(b))
		}
	}
	le.BindingsFNV = fmt.Sprintf("%016x", h.Sum64())
	return le
}

// TestWorkLedger pins the exact work of fixed Human and YouTube
// populations. Every engine budget counts work, so the ledger reads the
// same on any machine; a change that moves the work regenerates it with
// `go test ./internal/smartpsi/ -run WorkLedger -update`, and the file's
// diff is the change's exact work claim.
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
