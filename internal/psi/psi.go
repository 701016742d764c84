// Package psi implements the paper's two pivoted-subgraph-isomorphism
// evaluation methods (Algorithm 1): the optimistic greedy best-first
// search of Section 3.3 (with its super-optimistic capped first pass) and
// the pessimistic signature-pruned search of Section 3.4, plus the
// two-threaded racing baseline of Section 4.1.
//
// An Evaluator answers the per-node question "is data node u a valid
// binding of the query pivot?"; package smartpsi layers candidate
// extraction, machine-learned method/plan selection, caching and
// preemption on top.
package psi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/signature"
)

// Mode selects the evaluation method of Algorithm 1.
type Mode int

const (
	// Optimistic sorts candidates by satisfiability score, descending,
	// running the capped super-optimistic pass first (Section 3.3).
	Optimistic Mode = iota
	// Pessimistic prunes candidates whose signature does not satisfy the
	// query node's signature (Section 3.4, Proposition 3.2).
	Pessimistic
)

// Opposite returns the other method, used by preemptive recovery.
func (m Mode) Opposite() Mode {
	if m == Optimistic {
		return Pessimistic
	}
	return Optimistic
}

func (m Mode) String() string {
	switch m {
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SuperOptimisticCap is the candidate-set cap of the super-optimistic
// first pass; the paper uses 10.
const SuperOptimisticCap = 10

// ErrDeadline reports that an evaluation exceeded its deadline.
var ErrDeadline = errors.New("psi: evaluation deadline exceeded")

// ErrStopped reports that an evaluation was cancelled via its stop flag.
var ErrStopped = errors.New("psi: evaluation stopped")

// Limits bounds a single node evaluation. The zero value means no limits.
type Limits struct {
	// Deadline aborts the evaluation with ErrDeadline once passed.
	// The zero time means no deadline.
	Deadline time.Time
	// Stop, when non-nil and set, aborts the evaluation with ErrStopped.
	// The two-threaded baseline uses it to cancel the losing method.
	Stop *atomic.Bool
}

// Stats counts the work one or more evaluations performed. Every field
// must be an int64 event counter: Add (the canonical merge used by all
// worker pools) and PublishStats (the bridge into the internal/obs
// registry) are both covered by reflection-based tests that fail when a
// field is added but not merged or published.
type Stats struct {
	Recursions int64 // backtracking steps entered
	Candidates int64 // candidate bindings examined
	SigPrunes  int64 // candidates pruned by signature satisfaction
	DegPrunes  int64 // candidates pruned by the degree lower bound (pessimistic)
	Sorts      int64 // candidate sorts performed (optimistic)
	ScoreCalcs int64 // satisfiability scores computed
	CapHits    int64 // super-optimistic candidate-cap truncations
	Matches    int64 // full query embeddings found (successful evaluations)
	Deadlines  int64 // evaluations aborted by the deadline
	Stops      int64 // evaluations aborted by the stop flag
}

// Add accumulates other into s. It is the single canonical Stats merge:
// worker pools (smartpsi's candidate workers) must
// use it rather than ad-hoc field adds, so that a new field added here
// propagates everywhere (TestObsStatsMergeCoversAllFields enforces the
// field coverage).
func (s *Stats) Add(other Stats) {
	s.Recursions += other.Recursions
	s.Candidates += other.Candidates
	s.SigPrunes += other.SigPrunes
	s.DegPrunes += other.DegPrunes
	s.Sorts += other.Sorts
	s.ScoreCalcs += other.ScoreCalcs
	s.CapHits += other.CapHits
	s.Matches += other.Matches
	s.Deadlines += other.Deadlines
	s.Stops += other.Stops
}

// Total returns the sum of every counter — a coarse "events that would
// flow into obs" figure used by the overhead guard.
func (s Stats) Total() int64 {
	return s.Recursions + s.Candidates + s.SigPrunes + s.DegPrunes + s.Sorts +
		s.ScoreCalcs + s.CapHits + s.Matches + s.Deadlines + s.Stops
}

// Evaluator answers pivot-binding questions for one (data graph, query)
// pair. It is immutable after construction and safe for concurrent use;
// per-evaluation state lives in a State, which is not.
type Evaluator struct {
	g        *graph.Graph
	query    graph.Query
	dataSigs *signature.Signatures
	qSigs    *signature.Signatures
	// sparse holds each query node's positive signature entries, so the
	// hot satisfaction and score loops touch only the labels that occur
	// within D hops of the query node instead of the whole alphabet.
	sparse [][]sigEntry
	// prune holds, per query node, the highest-weight sparse entries
	// (the ones a non-matching data node is most likely to miss).
	// Checking only these keeps Proposition 3.2 pruning sound — skipping
	// entries can only let more candidates through — at a fraction of
	// the full check's cost.
	prune [][]sigEntry
}

// maxPruneEntries caps the per-node satisfaction check.
const maxPruneEntries = 8

type sigEntry struct {
	label  int32
	weight float64
}

// NewEvaluator builds an evaluator. dataSigs and querySigs must have been
// built with the same method, depth, and width (signature satisfaction is
// only sound when both sides count walks the same way).
func NewEvaluator(g *graph.Graph, q graph.Query, dataSigs, querySigs *signature.Signatures) (*Evaluator, error) {
	if dataSigs.Width() != querySigs.Width() {
		return nil, fmt.Errorf("psi: signature widths differ (%d vs %d)", dataSigs.Width(), querySigs.Width())
	}
	if dataSigs.Depth() != querySigs.Depth() {
		return nil, fmt.Errorf("psi: signature depths differ (%d vs %d)", dataSigs.Depth(), querySigs.Depth())
	}
	if dataSigs.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("psi: data signatures cover %d nodes, graph has %d", dataSigs.NumNodes(), g.NumNodes())
	}
	if querySigs.NumNodes() != q.G.NumNodes() {
		return nil, fmt.Errorf("psi: query signatures cover %d nodes, query has %d", querySigs.NumNodes(), q.G.NumNodes())
	}
	e := &Evaluator{g: g, query: q, dataSigs: dataSigs, qSigs: querySigs}
	e.sparse = make([][]sigEntry, q.G.NumNodes())
	e.prune = make([][]sigEntry, q.G.NumNodes())
	for v := 0; v < q.G.NumNodes(); v++ {
		row := querySigs.Row(graph.NodeID(v))
		for l, w := range row {
			if w > 0 {
				e.sparse[v] = append(e.sparse[v], sigEntry{label: int32(l), weight: w})
			}
		}
		pr := append([]sigEntry(nil), e.sparse[v]...)
		sort.Slice(pr, func(i, j int) bool { return pr[i].weight > pr[j].weight })
		if len(pr) > maxPruneEntries {
			pr = pr[:maxPruneEntries]
		}
		e.prune[v] = pr
	}
	return e, nil
}

// satisfies is the capped sparse form of signature.Satisfies for query
// node v: the highest-weight entries checked first, so non-matching
// candidates fail as early as possible.
func (e *Evaluator) satisfies(dataRow []float64, v graph.NodeID) bool {
	for _, entry := range e.prune[v] {
		if dataRow[entry.label] < entry.weight {
			return false
		}
	}
	return true
}

// score is the sparse form of signature.Score for query node v.
func (e *Evaluator) score(dataRow []float64, v graph.NodeID) float64 {
	entries := e.sparse[v]
	if len(entries) == 0 {
		return 0
	}
	var sum float64
	for _, entry := range entries {
		sum += dataRow[entry.label] / entry.weight
	}
	return sum / float64(len(entries))
}

// Graph returns the data graph the evaluator works on.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Query returns the pivoted query.
func (e *Evaluator) Query() graph.Query { return e.query }

// DataSignatures returns the data-node signatures.
func (e *Evaluator) DataSignatures() *signature.Signatures { return e.dataSigs }

// QuerySignatures returns the query-node signatures.
func (e *Evaluator) QuerySignatures() *signature.Signatures { return e.qSigs }

// State holds the mutable per-evaluation scratch. Reusing a State across
// evaluations avoids rebinding allocations; a State must not be shared
// between goroutines.
type State struct {
	bound  []graph.NodeID
	cands  [][]scored // per-depth candidate scratch
	stats  Stats
	limits Limits
	steps  int64 // work counter for amortized deadline checks
	// noSigPrune disables Proposition 3.2 pruning (ablation only).
	noSigPrune bool
	// fun, when non-nil, receives per-depth candidate-funnel events
	// (generated → deg-ok → sig-ok → recursed → matched) for the query
	// profiler. The hot loops pay one plain nil check per depth, no
	// locks or atomics: smartpsi attaches one Funnel per worker State
	// and merges it into the owning obs.Profile at batch boundaries.
	fun *obs.Funnel
}

type scored struct {
	node  graph.NodeID
	score float64
}

// NewState returns a State sized for queries up to maxQuerySize nodes.
func NewState(maxQuerySize int) *State {
	s := &State{
		bound: make([]graph.NodeID, 0, maxQuerySize),
		cands: make([][]scored, maxQuerySize),
	}
	return s
}

// Stats returns the accumulated work counters.
func (s *State) Stats() Stats { return s.stats }

// ResetStats zeroes the work counters.
func (s *State) ResetStats() { s.stats = Stats{} }

// SetFunnel attaches (or, with nil, detaches) a candidate funnel that
// subsequent evaluations fill per plan depth.
func (s *State) SetFunnel(f *obs.Funnel) { s.fun = f }

// Funnel returns the attached candidate funnel (nil when profiling is
// off).
func (s *State) Funnel() *obs.Funnel { return s.fun }

const deadlineCheckMask = 255 // check the clock every 256 work units

func (s *State) tick() error {
	s.steps++
	if s.limits.Stop != nil && s.limits.Stop.Load() {
		s.stats.Stops++
		return ErrStopped
	}
	if !s.limits.Deadline.IsZero() && s.steps&deadlineCheckMask == 0 {
		if time.Now().After(s.limits.Deadline) {
			s.stats.Deadlines++
			return ErrDeadline
		}
	}
	return nil
}

// Evaluate reports whether data node u is a valid binding of the query
// pivot, following compiled plan c in the given mode. The plan's first
// step must bind the pivot (guaranteed by plan.Compile). A non-nil error
// (ErrDeadline or ErrStopped) means the evaluation was aborted and the
// boolean is meaningless.
func (e *Evaluator) Evaluate(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, limits Limits) (bool, error) {
	if mode == Optimistic {
		// Super-optimistic first: cheap capped search that often finds a
		// match immediately. Its "no" is not a proof, so fall through to
		// the exhaustive optimistic pass.
		found, err := e.run(st, c, u, Optimistic, true, limits)
		if err != nil || found {
			return found, err
		}
		return e.run(st, c, u, Optimistic, false, limits)
	}
	return e.run(st, c, u, mode, false, limits)
}

// EvaluateNoSuper is Evaluate without the super-optimistic first pass,
// used by the ablation benchmarks.
func (e *Evaluator) EvaluateNoSuper(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, limits Limits) (bool, error) {
	return e.run(st, c, u, mode, false, limits)
}

// EvaluateNoSigPrune is pessimistic evaluation with the Proposition 3.2
// signature pruning disabled (label, degree and adjacency checks only),
// used by the ablation benchmarks to isolate the pruning's value.
func (e *Evaluator) EvaluateNoSigPrune(st *State, c *plan.Compiled, u graph.NodeID, limits Limits) (bool, error) {
	st.noSigPrune = true
	defer func() { st.noSigPrune = false }()
	return e.run(st, c, u, Pessimistic, false, limits)
}

func (e *Evaluator) run(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, super bool, limits Limits) (bool, error) {
	st.limits = limits
	st.bound = st.bound[:0]
	// Check the limits once up front so an already-expired deadline or a
	// set stop flag aborts even evaluations too small to hit a tick.
	if limits.Stop != nil && limits.Stop.Load() {
		st.stats.Stops++
		return false, ErrStopped
	}
	if !limits.Deadline.IsZero() && time.Now().After(limits.Deadline) {
		st.stats.Deadlines++
		return false, ErrDeadline
	}
	if len(st.cands) < len(c.Steps) {
		st.cands = make([][]scored, len(c.Steps))
	}

	// Step 0: the pivot binding is supplied by the caller.
	step0 := &c.Steps[0]
	if e.g.Label(u) != step0.Label {
		return false, nil
	}
	st.stats.Candidates++
	var fd *obs.FunnelDepth
	if st.fun != nil {
		// Grow the funnel to the full plan depth up front so the row
		// pointers taken here and in extend stay valid for the whole
		// recursion (At never reallocates afterwards).
		st.fun.At(len(c.Steps) - 1)
		fd = st.fun.At(0)
		fd.Generated++
	}
	if mode == Pessimistic {
		if e.g.Degree(u) < step0.Degree {
			st.stats.DegPrunes++
			return false, nil
		}
		if !st.noSigPrune && !e.satisfies(e.dataSigs.Row(u), step0.QueryNode) {
			st.stats.SigPrunes++
			if fd != nil {
				fd.DegOK++
			}
			return false, nil
		}
	}
	if fd != nil {
		fd.DegOK++
		fd.SigOK++
		fd.Recursed++
	}
	st.bound = append(st.bound, u)
	found, err := e.extend(st, c, 1, mode, super)
	if found && err == nil {
		st.stats.Matches++
		if fd != nil {
			fd.Matched++
		}
	}
	return found, err
}

// extend recursively binds the query node at plan position depth.
func (e *Evaluator) extend(st *State, c *plan.Compiled, depth int, mode Mode, super bool) (bool, error) {
	if depth == len(c.Steps) {
		// Full mapping (Algorithm 1, line 1). With deep checking on,
		// verify the witness before reporting the pivot binding valid:
		// st.bound is plan-ordered and complete exactly here.
		if invariant.Enabled() {
			if err := e.checkWitness(st, c); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if err := st.tick(); err != nil {
		return false, err
	}
	st.stats.Recursions++
	step := &c.Steps[depth]
	anchor := st.bound[step.Anchor]

	// Candidate generation: the anchor's neighbors with the right label
	// (and edge label when the query edge carries one).
	lo, hi := e.g.NeighborRangeWithLabel(anchor, step.Label)
	nbrs := e.g.Neighbors(anchor)
	cands := st.cands[depth][:0]
	qn := step.QueryNode
	var fd *obs.FunnelDepth
	if st.fun != nil {
		fd = st.fun.At(depth) // pre-grown in run; no reallocation here
	}
	for i := lo; i < hi; i++ {
		cand := nbrs[i]
		if super && len(cands) >= SuperOptimisticCap {
			st.stats.CapHits++
			break // GetLimitedCandidates (Algorithm 1, line 4)
		}
		st.stats.Candidates++
		if fd != nil {
			fd.Generated++
		}
		if step.AnchorEdgeLabel != graph.NoLabel && e.g.EdgeLabelAt(anchor, i) != step.AnchorEdgeLabel {
			continue
		}
		if e.isBound(st, cand) {
			continue // injectivity
		}
		if !e.checkEdges(st, step, cand) {
			continue
		}
		switch mode {
		case Pessimistic:
			// Aggressive pruning: degree then signature (line 7).
			if e.g.Degree(cand) < step.Degree {
				st.stats.DegPrunes++
				continue
			}
			if fd != nil {
				fd.DegOK++
			}
			if !st.noSigPrune && !e.satisfies(e.dataSigs.Row(cand), qn) {
				st.stats.SigPrunes++
				continue
			}
			cands = append(cands, scored{node: cand})
		case Optimistic:
			st.stats.ScoreCalcs++
			if fd != nil {
				fd.DegOK++
			}
			cands = append(cands, scored{node: cand, score: e.score(e.dataSigs.Row(cand), qn)})
		}
		if fd != nil {
			fd.SigOK++
		}
	}
	if mode == Optimistic && len(cands) > 1 {
		st.stats.Sorts++
		slices.SortFunc(cands, func(a, b scored) int {
			if c := cmp.Compare(b.score, a.score); c != 0 {
				return c
			}
			return cmp.Compare(a.node, b.node)
		})
	}
	st.cands[depth] = cands // keep grown capacity

	for _, cand := range cands {
		if fd != nil {
			fd.Recursed++
		}
		st.bound = append(st.bound, cand.node)
		ok, err := e.extend(st, c, depth+1, mode, super)
		st.bound = st.bound[:len(st.bound)-1]
		if err != nil {
			return false, err
		}
		if ok {
			if fd != nil {
				fd.Matched++
			}
			return true, nil // stop at the first full mapping
		}
	}
	return false, nil
}

// checkWitness deep-validates the complete plan-ordered binding in
// st.bound as an embedding of the query (injectivity, label and edge
// preservation). Only called when invariant checking is enabled.
func (e *Evaluator) checkWitness(st *State, c *plan.Compiled) error {
	mapping := make([]graph.NodeID, e.query.G.NumNodes())
	for i := range mapping {
		mapping[i] = -1
	}
	for pos, u := range st.bound {
		mapping[c.Steps[pos].QueryNode] = u
	}
	return invariant.CheckEmbedding(e.g, e.query, mapping)
}

func (e *Evaluator) isBound(st *State, u graph.NodeID) bool {
	for _, b := range st.bound {
		if b == u {
			return true
		}
	}
	return false
}

// checkEdges verifies the non-anchor adjacency constraints of step for
// candidate cand against the current bindings.
func (e *Evaluator) checkEdges(st *State, step *plan.Step, cand graph.NodeID) bool {
	for _, chk := range step.Checks {
		other := st.bound[chk.Pos]
		if chk.EdgeLabel == graph.NoLabel {
			if !e.g.HasEdge(cand, other) {
				return false
			}
		} else {
			l, ok := e.g.EdgeLabel(cand, other)
			if !ok || l != chk.EdgeLabel {
				return false
			}
		}
	}
	return true
}
