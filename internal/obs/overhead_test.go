// Overhead guard for the disabled path. The instrumentation contract is
// that with collection off, every obs call site costs one predictable
// branch: on the atomic gate for per-query sites, on a plain bool read
// once per query for per-candidate ones. This test turns that contract
// into a regression guard: it measures the real per-check cost of both
// branches, counts how many events behind each a representative
// SmartPSI workload would emit, and asserts that the implied total stays
// under 2% of the workload's wall time.
//
// The test lives in package obs_test so it can drive the public engine
// (repro -> smartpsi -> obs) without an import cycle.
package obs_test

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/obs"
)

// sink defeats dead-code elimination of the measured gate loop.
var sink int

// perIterMin measures the per-iteration cost of loop over iters
// iterations, taking the minimum across runs passes. The minimum is
// the least scheduler-disturbed estimate: a preempted pass can only
// read high, never low, so one quiet pass out of five is enough for a
// stable number where a single-shot measurement flakes.
func perIterMin(runs, iters int, loop func(n int) int) float64 {
	best := math.MaxFloat64
	for r := 0; r < runs; r++ {
		start := time.Now()
		sink += loop(iters)
		if d := time.Since(start).Seconds() / float64(iters); d < best {
			best = d
		}
	}
	return best
}

// loopBaseline measures the bare counting loop that every gate
// measurement shares, so the gate cost can be reported net of loop
// bookkeeping instead of blaming the branch for the loop around it.
func loopBaseline(iters int) float64 {
	return perIterMin(5, iters, func(n int) int {
		h := 0
		for i := 0; i < n; i++ {
			h++
		}
		return h
	})
}

// netOf subtracts the loop baseline from a measured per-iteration
// cost, clamping at zero: on a noisy pass the baseline can read
// higher than the gate loop, and a negative cost is meaningless.
func netOf(perIter, baseline float64) float64 {
	return math.Max(0, perIter-baseline)
}

// checkOverheadBudget applies the two-tier budget: the strict 2%
// contract gates only on multi-core runners (on GOMAXPROCS=1 the
// measurement loop and the scheduler share one P, which inflates
// timings beyond what the contract is about), while a loose 10%
// sanity bound always gates — a disabled path that expensive is
// broken on any machine.
func checkOverheadBudget(t *testing.T, what string, overhead, wall float64) {
	t.Helper()
	strict, loose := 0.02*wall, 0.10*wall
	switch {
	case overhead > loose:
		t.Errorf("%s overhead %.3gs exceeds the 10%% sanity bound of workload wall time %.3gs", what, overhead, wall)
	case overhead > strict:
		if runtime.GOMAXPROCS(0) > 1 {
			t.Errorf("%s overhead %.3gs exceeds 2%% of workload wall time %.3gs", what, overhead, wall)
		} else {
			t.Logf("%s overhead %.3gs exceeds the strict 2%% budget of %.3gs, tolerated on GOMAXPROCS=1", what, overhead, wall)
		}
	}
}

// queryEnabled is a package-level (so never provably false at compile
// time) stand-in for the copy of the gate smartpsi reads once per query.
var queryEnabled bool

// overheadGraph builds a ~400-node connected labelled graph.
func overheadGraph(t *testing.T) *repro.Graph {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(7))
	b := repro.NewBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.AddNode(repro.Label(i % 5))
	}
	for i := 1; i < n; i++ {
		if err := b.AddEdge(repro.NodeID(i-1), repro.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		// Duplicate edges are possible; AddEdge may reject them.
		_ = addEdgeIgnoringDuplicates(b, repro.NodeID(u), repro.NodeID(v))
	}
	return b.MustBuild()
}

func addEdgeIgnoringDuplicates(b *repro.Builder, u, v repro.NodeID) error {
	return b.AddEdge(u, v)
}

// perCandidateSites names the metrics smartpsi still publishes per
// candidate evaluation behind the query's copy of the gate: in the
// disabled build each is a plain branch on a bool, not an atomic load.
var perCandidateSites = map[string]bool{
	obs.SmartPlanSeconds.Name(): true,
}

// perQueryAdds names the counters smartpsi publishes once per query with
// a single Add(n) from its Result: each is one event per query, not n.
var perQueryAdds = map[string]bool{
	obs.SmartTrainedNodes.Name():   true,
	obs.SmartCacheHits.Name():      true,
	obs.SmartCacheMisses.Name():    true,
	obs.SmartFlips.Name():          true,
	obs.SmartFallbacks.Name():      true,
	obs.SmartRecoveries.Name():     true,
	obs.SmartModeChecks.Name():     true,
	obs.SmartMispredicts.Name():    true,
	obs.SmartBetaRankChecks.Name(): true,
	obs.SmartBetaRankTop1.Name():   true,
}

// gatedEvents splits the registry deltas between two snapshots into
// events behind the atomic gate and events behind the per-query bool.
// A counter in perQueryAdds counts at most one event per query. The psi_*
// work counters are excluded on purpose: the evaluator accumulates them
// in plain struct fields and flushes them in a single PublishStats call
// per query, so they cost zero checks in the recursion itself.
func gatedEvents(before, after obs.Snapshot, queries int) (atomic, plain int64) {
	add := func(name string, n int64) {
		switch {
		case strings.HasPrefix(name, "psi_"):
		case perQueryAdds[name]:
			atomic += min(n, int64(queries))
		case perCandidateSites[name]:
			plain += n
		default:
			atomic += n
		}
	}
	for name, v := range after.Counters {
		add(name, v-before.Counters[name])
	}
	for name, h := range after.Histograms {
		add(name, h.Count-before.Histograms[name].Count)
	}
	return atomic, plain
}

func TestObsOverheadGuard(t *testing.T) {
	prev := obs.Enabled()
	defer obs.Enable(prev)

	// Bundle capture is compiled in but unarmed (no -bundle-dir): the
	// whole measured workload runs with a live Bundler mounted on the
	// default registry and recorder, and the budget below must still
	// hold. Zero captures may occur without a directory.
	bundler, err := obs.NewBundler(obs.BundlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	obs.Handler(obs.Default, obs.DefaultRecorder, obs.HandlerConfig{Bundler: bundler})
	capturedBefore := obs.Default.Snapshot().Counters[obs.BundlesCaptured]
	defer func() {
		if bundler.Armed() {
			t.Error("bundler without Dir reports Armed")
		}
		delta := obs.Default.Snapshot().Counters[obs.BundlesCaptured] - capturedBefore
		if delta != 0 {
			t.Errorf("unarmed bundler captured %d bundles during the workload, want 0", delta)
		}
	}()

	// 1. Per-check cost of the disabled gate, net of loop bookkeeping
	// and taken as a min-of-five so one preempted pass cannot fail the
	// guard.
	obs.Enable(false)
	const checks = 1 << 21
	baseline := loopBaseline(checks)
	perCheck := netOf(perIterMin(5, checks, func(n int) int {
		h := 0
		for i := 0; i < n; i++ {
			if obs.Enabled() {
				h++
			}
		}
		return h
	}), baseline)

	// 1b. Per-event cost of the per-candidate sites' disabled gate: a
	// branch on the bool smartpsi read once per query, no atomic load.
	// The candidate funnel costs no check at all: it is derived, when
	// the query ends, from the psi.Stats rows every path counts.
	enabled := queryEnabled
	perPlainCheck := netOf(perIterMin(5, checks, func(n int) int {
		h := 0
		for i := 0; i < n; i++ {
			if enabled {
				h++
			}
		}
		return h
	}), baseline)

	// 2. Representative workload with collection disabled.
	g := overheadGraph(t)
	rng := rand.New(rand.NewSource(1))
	queries, err := repro.ExtractQueries(g, 4, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(g, repro.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for _, q := range queries {
		if _, err := eng.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(t0).Seconds()

	// 3. Enabled re-run to count gate-protected events. Each event
	// behind a gate corresponds to a bounded handful of branches in the
	// disabled build; sitesPerEvent = 4 is a generous upper bound on that
	// fan-in.
	before := obs.Default.Snapshot()
	obs.Enable(true)
	// A background sampler at the default interval, keeping the
	// availability objective's counters, runs across the measured
	// workload: sampling reads the registry off the hot path and must
	// not disturb the overhead budget.
	sampler := obs.NewSampler(obs.Default, obs.DefaultSampleInterval)
	obs.NewSLOSet(sampler, []obs.Objective{obs.AvailabilityObjective(0.99, 0, 0, 0, 0)})
	sampler.Start()
	defer sampler.Stop()
	for _, q := range queries {
		if _, err := eng.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	obs.Enable(false)
	events, candEvents := gatedEvents(before, obs.Default.Snapshot(), len(queries))
	if events <= 0 || candEvents <= 0 {
		t.Fatalf("enabled run produced %d per-query and %d per-candidate gated events; instrumentation not wired", events, candEvents)
	}

	const sitesPerEvent = 4
	overhead := perCheck*float64(events)*sitesPerEvent +
		perPlainCheck*float64(candEvents)*sitesPerEvent
	t.Logf("perCheck=%.2fns perPlainCheck=%.2fns events=%d candEvents=%d overhead=%.3fµs wall=%.3fms (2%% limit %.3fµs)",
		perCheck*1e9, perPlainCheck*1e9, events, candEvents, overhead*1e6, wall*1e3, 0.02*wall*1e6)
	checkOverheadBudget(t, "disabled-path", overhead, wall)
}

// BenchmarkObsDisabledGate documents the cost of one disabled check.
func BenchmarkObsDisabledGate(b *testing.B) {
	prev := obs.Enabled()
	obs.Enable(false)
	defer obs.Enable(prev)
	n := 0
	for i := 0; i < b.N; i++ {
		if obs.Enabled() {
			n++
		}
	}
	sink = n
}

// BenchmarkObsEnabledCounter documents the cost of one enabled event
// (gate branch + atomic add).
func BenchmarkObsEnabledCounter(b *testing.B) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	c := obs.NewRegistry().Counter("bench_total", "")
	for i := 0; i < b.N; i++ {
		if obs.Enabled() {
			c.Inc()
		}
	}
}
