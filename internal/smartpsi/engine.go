// Package smartpsi implements the paper's full system (Section 4.2): a
// PSI engine that trains, per query, a Random-Forest node-type
// classifier (model α) to pick the optimistic or pessimistic evaluation
// method per candidate node, and a multi-class plan classifier (model β)
// to pick a search order, with a prediction memo (Section 4.2.3; kept
// per node, prepared.go) and a preemptive query processor that detects
// and recovers from wrong predictions (Section 4.3). Where the paper
// trains on every evaluation, an Engine keeps what it prepared and
// trained for queries that repeat (prepared.go).
package smartpsi

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/signature"
)

// Options configures an Engine. The zero value gives the paper's
// defaults; the paper's fixed training settings are the constants
// below, which no option overrides. The engine's own budgets (§4.2.2's
// sweep limit, §4.3's rung budgets) count psi.Stats.Units, not wall
// time, so a seed decides alike on any machine.
type Options struct {
	// Threads is the number of candidate-evaluation workers (default 1;
	// Figure 9 uses 2 for parity with the two-threaded baseline).
	Threads int
	// Seed drives all sampling (training-set choice, plan sampling and
	// the forests).
	Seed int64

	// Ablation switches (all false in the full system).
	DisablePlanModel  bool // always use the heuristic plan (no model β)
	DisablePreemption bool // no Section 4.3 detection & recovery
	DisableTypeModel  bool // always predict "invalid" (pessimistic only)
	// DisablePreparedCache makes every call prepare and train afresh, as
	// the paper does (§4.2). A server leaves it off; the experiment
	// harness (internal/bench) sets it, because Table 4 and Figures 7–9
	// price the per-query training cost while re-running queries on one
	// engine.
	DisablePreparedCache bool
}

// MinTrainNodes is the smallest candidate set worth training on: below
// it the engine evaluates every candidate pessimistically with the
// heuristic plan, because with fewer candidates the models cannot
// amortize their training cost.
const MinTrainNodes = 64

// The paper's other fixed training settings (§4.2). Data signatures are
// always matrix-built at signature.DefaultDepth, and a query's follow
// them (psi.NewEvaluator); both forests use ml's settings, seeded from
// Options.Seed.
const (
	// trainFraction is the share of candidate nodes used for training,
	// capped at maxTrainNodes.
	trainFraction = 0.10
	// maxTrainNodes caps the training set (the paper's experimental
	// setting).
	maxTrainNodes = 1000
	// planSamples is the number of candidate plans evaluated for model
	// β; the heuristic plan is always among them.
	planSamples = 6
	// planSweepNodes caps how many training nodes run the full per-plan
	// sweep that labels model β. The remaining training nodes are
	// evaluated once, under the heuristic plan, for model α only,
	// keeping the Table 4 overhead proportional to the plan count on
	// large candidate sets.
	planSweepNodes = 100
)

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

// Engine evaluates PSI queries over one data graph. Constructing an
// Engine loads the graph and computes all node signatures once
// (SmartPSI's startup phase); an Evaluate call then prepares the query,
// trains its models and runs the candidates — or, for a query the engine
// has seen repeat, reuses the prepared and trained artifact it kept and
// only runs the candidates (see prepared.go).
//
// An Engine is safe for concurrent Evaluate calls. Graph, signatures and
// options never change; the prepared-query cache is the one part that
// does, and it changes how fast a query is answered, never the answer.
// Every call builds its own evaluator scratch and result.
type Engine struct {
	g    *graph.Graph
	sigs *signature.Signatures
	opts Options

	// prepared is the bounded cache of artifacts; nil with
	// Options.DisablePreparedCache.
	prepared *preparedCache

	// SignatureBuildTime records the one-off startup cost (Figure 8).
	SignatureBuildTime time.Duration

	// evalHook, when non-nil, replaces the candidate evaluation call in
	// attempt with a deterministic stand-in keyed by the recovery state
	// (1, 2, 3). Only the recovery-ladder tests set it, to force
	// exact timeout sequences without real searches and their budgets.
	evalHook func(state int, mode psi.Mode, planIdx int) (bool, error)
	// trainHook, when non-nil, runs at train's two budget checkpoints
	// (0: after the sweep, 1: between the α and β fits) just before the
	// deadline is read. Only the deadline tests set it, to let a budget
	// expire exactly there.
	trainHook func(checkpoint int)
}

// NewEngine builds an engine over g, computing its node signatures.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	start := time.Now()
	sigs, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	if err != nil {
		return nil, fmt.Errorf("smartpsi: %w", err)
	}
	buildTime := time.Since(start)
	if obs.Enabled() {
		obs.SmartEngineBuilds.Inc()
		obs.SmartSigBuildSecs.Observe(buildTime.Seconds())
	}
	e := newEngine(g, sigs, opts)
	e.SignatureBuildTime = buildTime
	return e, nil
}

func newEngine(g *graph.Graph, sigs *signature.Signatures, opts Options) *Engine {
	e := &Engine{g: g, sigs: sigs, opts: opts}
	if !opts.DisablePreparedCache {
		e.prepared = newPreparedCache()
	}
	return e
}

// Graph returns the engine's data graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Signatures returns the engine's data-node signatures.
func (e *Engine) Signatures() *signature.Signatures { return e.sigs }

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }
