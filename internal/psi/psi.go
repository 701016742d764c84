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
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/invariant"
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

// ErrDeadline reports that an evaluation exceeded its deadline or its
// work ceiling.
var ErrDeadline = errors.New("psi: evaluation deadline exceeded")

// ErrStopped reports that an evaluation was cancelled via its stop flag.
var ErrStopped = errors.New("psi: evaluation stopped")

// Limits bounds a single node evaluation. The zero value means no limits.
type Limits struct {
	// Deadline aborts the evaluation with ErrDeadline once passed: the
	// request's own budget. The zero time means no deadline.
	Deadline time.Time
	// MaxSteps aborts the evaluation with ErrDeadline once it has done
	// that many Stats.Units, checked once per recursion. Zero: none.
	MaxSteps int64
	// Stop, when non-nil and set, aborts the evaluation with ErrStopped.
	// The two-threaded baseline uses it to cancel the losing method.
	Stop *atomic.Bool
}

// Stats counts the work one or more evaluations performed. Every field
// must be an int64 event counter: Add (the canonical merge used by all
// worker pools) and PublishStats (the bridge into the internal/obs
// registry) are both covered by reflection-based tests that fail when a
// field is added but not merged or published.
//
// A candidate is generated, then rejected by at most one check, in
// Algorithm 1's order: edge label, injectivity, adjacency, the candidate
// filter (only an Evaluator.Filtered one has it), the degree bound,
// Proposition 3.2's signature test. Funnel derives the candidate
// funnel from these counts, kept per plan depth (State.Depths). They
// count what the search examined, not what Algorithm 1's listing would
// list: a search that stops at a witness generates none of the depth's
// remaining candidates. At a plan's last depth a candidate that passes
// the first three checks is a witness, so no degree, signature or score
// test runs there (deg-ok = sig-ok = generated minus the three
// rejections), no filter test either, and at most one candidate per
// visit is recursed into.
type Stats struct {
	Recursions         int64 // backtracking steps entered
	Candidates         int64 // candidate bindings examined
	EdgeLabelRejects   int64 // candidates whose anchor edge has the wrong label
	InjectivityRejects int64 // candidates already bound to another query node
	AdjacencyRejects   int64 // candidates missing an edge to a bound non-anchor node
	FilterPrunes       int64 // candidates outside their query node's filter set (Evaluator.Filtered)
	SigPrunes          int64 // candidates pruned by signature satisfaction
	DegPrunes          int64 // candidates pruned by the degree lower bound (pessimistic)
	Sorts              int64 // optimistic candidate tails sorted (past the first few, selected)
	ScoreCalcs         int64 // satisfiability scores computed
	CapHits            int64 // super-optimistic candidate-cap truncations
	Matches            int64 // full query embeddings found (successful evaluations)
	Deadlines          int64 // evaluations aborted by the deadline or the work ceiling
	Stops              int64 // evaluations aborted by the stop flag
}

// Add accumulates other into s. It is the one Stats merge, so a field
// added here propagates everywhere (TestObsStatsMergeCoversAllFields).
func (s *Stats) Add(other Stats) {
	s.Recursions += other.Recursions
	s.Candidates += other.Candidates
	s.EdgeLabelRejects += other.EdgeLabelRejects
	s.InjectivityRejects += other.InjectivityRejects
	s.AdjacencyRejects += other.AdjacencyRejects
	s.FilterPrunes += other.FilterPrunes
	s.SigPrunes += other.SigPrunes
	s.DegPrunes += other.DegPrunes
	s.Sorts += other.Sorts
	s.ScoreCalcs += other.ScoreCalcs
	s.CapHits += other.CapHits
	s.Matches += other.Matches
	s.Deadlines += other.Deadlines
	s.Stops += other.Stops
}

// Units is the work the counters measure, in the unit of
// Limits.MaxSteps: one per recursion plus one per generated candidate.
func (s Stats) Units() int64 { return s.Recursions + s.Candidates }

// Sum returns rows added together: a search's flat counters from its
// per-depth rows (State.Depths).
func Sum(rows []Stats) Stats {
	var sum Stats
	for _, row := range rows {
		sum.Add(row)
	}
	return sum
}

// Evaluator answers pivot-binding questions for one (data graph, query)
// pair. It is immutable after construction and safe for concurrent use;
// per-evaluation state lives in a State, which is not.
type Evaluator struct {
	g        *graph.Graph
	query    graph.Query
	dataSigs *signature.Signatures
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
	// filter is nil, or Filtered's candidate sets: C(v) is the bitset
	// over data node ids at filter[v*words : (v+1)*words].
	filter []uint64
	words  int
}

// maxPruneEntries caps the per-node satisfaction check.
const maxPruneEntries = 8

// sigEntry is one positive query-signature entry, in the signatures'
// 2^-D units (signature.Signatures.Scaled).
type sigEntry struct {
	label  int32
	weight uint32
}

// NewEvaluator builds an evaluator. With querySigs nil it builds the
// query's signatures from dataSigs (signature.ForQuery); explicit
// querySigs must match dataSigs' method, depth and width, since
// signature satisfaction is only sound when both sides count walks the
// same way.
func NewEvaluator(g *graph.Graph, q graph.Query, dataSigs, querySigs *signature.Signatures) (*Evaluator, error) {
	if querySigs == nil {
		var err error
		if querySigs, err = signature.ForQuery(q.G, dataSigs); err != nil {
			return nil, fmt.Errorf("psi: query signatures: %w", err)
		}
	}
	if dataSigs.Method() != querySigs.Method() {
		return nil, fmt.Errorf("psi: signature methods differ (%v vs %v)", dataSigs.Method(), querySigs.Method())
	}
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
	e := &Evaluator{g: g, query: q, dataSigs: dataSigs}
	e.sparse = make([][]sigEntry, q.G.NumNodes())
	e.prune = make([][]sigEntry, q.G.NumNodes())
	for v := 0; v < q.G.NumNodes(); v++ {
		row := querySigs.Scaled(graph.NodeID(v))
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
// candidates fail as early as possible. Both rows are in the same exact
// units, so Proposition 3.2's test is an integer compare.
func (e *Evaluator) satisfies(dataRow []uint32, v graph.NodeID) bool {
	for _, entry := range e.prune[v] {
		if dataRow[entry.label] < entry.weight {
			return false
		}
	}
	return true
}

// score is the sparse form of signature.Score for query node v. Both
// operands carry the same 2^D factor and convert to float64 exactly, so
// each correctly rounded quotient equals the unscaled one bit for bit.
func (e *Evaluator) score(dataRow []uint32, v graph.NodeID) float64 {
	entries := e.sparse[v]
	if len(entries) == 0 {
		return 0
	}
	var sum float64
	for _, entry := range entries {
		sum += float64(dataRow[entry.label]) / float64(entry.weight)
	}
	return sum / float64(len(entries))
}

// The candidate filter's refinement runs at most maxFilterRounds rounds
// and stops after the first that removes fewer than one in
// filterStopShare of the sets' members: later rounds remove little.
const (
	maxFilterRounds = 3
	filterStopShare = 100
)

// Filtered returns a copy of e that carries a candidate filter: for each
// query node v, a set C(v) of data nodes holding every node that v maps
// to in some embedding of the query. C(v) starts as the nodes with v's
// label that pass v's search-free tests (plausible). A refinement round
// then drops u from C(v) when some query neighbour w of v has no
// neighbour of u in C(w) with w's label, joined by an edge with the query
// edge's label when it carries one. Every removal is of a node no
// embedding uses, so the sets stay sound however many rounds run. The
// copy's searches test the sets before the degree, signature and score
// tests (Stats.FilterPrunes), and its verdicts are e's.
func (e *Evaluator) Filtered() *Evaluator {
	g, qg := e.g, e.query.G
	f := *e
	f.words = (g.NumNodes() + 63) / 64
	f.filter = make([]uint64, qg.NumNodes()*f.words)
	members := 0
	for v := graph.NodeID(0); int(v) < qg.NumNodes(); v++ {
		row := f.filterRow(v)
		for _, u := range g.NodesWithLabel(qg.Label(v)) {
			if e.plausible(v, u) {
				row[u>>6] |= 1 << (u & 63)
				members++
			}
		}
	}
	for round := 0; round < maxFilterRounds; round++ {
		removed := 0
		for v := graph.NodeID(0); int(v) < qg.NumNodes(); v++ {
			row := f.filterRow(v)
			for i, word := range row {
				for ; word != 0; word &= word - 1 {
					u := graph.NodeID(i<<6 + bits.TrailingZeros64(word))
					if !f.supported(u, v) {
						row[i] &^= 1 << (u & 63)
						removed++
					}
				}
			}
		}
		if removed*filterStopShare < members {
			break
		}
		members -= removed
	}
	return &f
}

// filterRow returns C(v)'s bitset.
func (e *Evaluator) filterRow(v graph.NodeID) []uint64 {
	return e.filter[int(v)*e.words : int(v+1)*e.words]
}

// inFilter reports whether data node u is in C(v); every node is when e
// carries no filter.
func (e *Evaluator) inFilter(v, u graph.NodeID) bool {
	return e.filter == nil || e.filter[int(v)*e.words+int(u>>6)]&(1<<(u&63)) != 0
}

// supported reports whether data node u has, for every query neighbour w
// of v, a neighbour in C(w) with w's label, over an edge with the query
// edge's label when that carries one.
func (e *Evaluator) supported(u, v graph.NodeID) bool {
	qg := e.query.G
	nbrs := e.g.Neighbors(u)
	for i, w := range qg.Neighbors(v) {
		el := qg.EdgeLabelAt(v, i)
		lo, hi := e.g.NeighborRangeWithLabel(u, qg.Label(w))
		j := lo
		for ; j < hi; j++ {
			if (el == graph.NoLabel || e.g.EdgeLabelAt(u, j) == el) && e.inFilter(w, nbrs[j]) {
				break
			}
		}
		if j == hi {
			return false
		}
	}
	return true
}

// FilterBytes is the resident size of e's candidate filter: 0 unless e
// is Filtered, else one bit per data node for each query node, in whole
// words.
func (e *Evaluator) FilterBytes() int64 { return int64(len(e.filter)) * 8 }

// Admits reports whether data node u can still bind the query pivot once
// the search-free tests are done: on a filtered evaluator, whether u is
// in the pivot's set; on an unfiltered one, whether u has the pivot's
// label and passes its search-free tests (plausible). A node it refuses
// is invalid in every mode and under every plan.
func (e *Evaluator) Admits(u graph.NodeID) bool {
	p := e.query.Pivot
	if e.filter != nil {
		return e.inFilter(p, u)
	}
	return e.g.Label(u) == e.query.G.Label(p) && e.plausible(p, u)
}

// plausible reports whether data node u passes query node v's
// search-free tests: at least v's degree, and the capped Prop. 3.2 test.
func (e *Evaluator) plausible(v, u graph.NodeID) bool {
	return e.g.Degree(u) >= e.query.G.Degree(v) && e.satisfies(e.dataSigs.Scaled(u), v)
}

// Graph returns the data graph the evaluator works on.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Query returns the pivoted query.
func (e *Evaluator) Query() graph.Query { return e.query }

// DataSignatures returns the data-node signatures.
func (e *Evaluator) DataSignatures() *signature.Signatures { return e.dataSigs }

// State holds the mutable per-evaluation scratch and the work counted
// so far. Reusing a State across evaluations avoids rebinding
// allocations; a State must not be shared between goroutines.
type State struct {
	bound []graph.NodeID
	cands [][]scored // per-depth optimistic candidate lists; the pessimist lists none
	// runs memoizes, per depth, the anchor's label run of the last visit:
	// a depth is often entered again under the same anchor, whose run is
	// then not searched again. Each evaluation starts with them empty.
	runs []labelRun
	// depths holds one Stats row per plan depth, as long as the longest
	// plan evaluated: each event is one plain increment in the row of
	// the depth where it happens. Stats is their sum.
	depths  []Stats
	units   int64 // Stats().Units(), kept running for the MaxSteps check
	limits  Limits
	ceiling int64 // units at which the evaluation stops: start + MaxSteps
	// noSigPrune disables Proposition 3.2 pruning (ablation only).
	noSigPrune bool
}

// labelRun is the index range [lo, hi) within Neighbors(anchor) of the
// anchor's neighbours with label, as graph.NeighborRangeWithLabel gives
// it; anchor -1 marks an empty memo.
type labelRun struct {
	anchor graph.NodeID
	label  graph.Label
	lo, hi int
}

// labelRun returns anchor's run of label-l neighbours at depth, searching
// it only when the depth's memo holds another anchor or label.
func (s *State) labelRun(g *graph.Graph, depth int, anchor graph.NodeID, l graph.Label) (lo, hi int) {
	r := &s.runs[depth]
	if r.anchor != anchor || r.label != l {
		r.anchor, r.label = anchor, l
		r.lo, r.hi = g.NeighborRangeWithLabel(anchor, l)
	}
	return r.lo, r.hi
}

type scored struct {
	node  graph.NodeID
	score float64
}

// before is the optimistic visit order: higher score first, ties to the
// lower node id. Scores are never NaN, so they compare directly.
func before(a, b scored) bool {
	return a.score > b.score || (a.score == b.score && a.node < b.node)
}

// visitOrder is before as a comparison, for sorting.
func visitOrder(a, b scored) int {
	switch {
	case before(a, b):
		return -1
	case before(b, a):
		return 1
	}
	return 0
}

// optimisticSelect is how many optimistic candidates per depth are
// picked by a linear scan before the remainder is sorted.
const optimisticSelect = 3

// nextOptimistic puts the i-th candidate in visit order at cs[i], given
// that cs[:i] already hold the first i: it selects the first few by
// linear scan and sorts the rest at once, only if the search gets that
// far (most optimistic searches succeed on an early candidate). It
// reports whether it sorted the tail.
func nextOptimistic(cs []scored, i int) bool {
	switch {
	case i < optimisticSelect:
		best := i
		for j := i + 1; j < len(cs); j++ {
			if before(cs[j], cs[best]) {
				best = j
			}
		}
		cs[i], cs[best] = cs[best], cs[i]
	case i == optimisticSelect && len(cs)-i > 1:
		slices.SortFunc(cs[i:], visitOrder)
		return true
	}
	return false
}

// NewState returns a State sized for queries up to maxQuerySize nodes.
func NewState(maxQuerySize int) *State {
	return &State{
		bound:  make([]graph.NodeID, 0, maxQuerySize),
		cands:  make([][]scored, maxQuerySize),
		runs:   make([]labelRun, maxQuerySize),
		depths: make([]Stats, 0, maxQuerySize),
	}
}

// Stats returns the accumulated work counters, summed over plan depths.
func (s *State) Stats() Stats { return Sum(s.depths) }

// Depths returns the accumulated work counters of each plan depth, row 0
// the pivot's. The rows are the State's own: the next evaluation on it
// moves them.
func (s *State) Depths() []Stats { return s.depths }

// Units returns Stats().Units() without summing the rows.
func (s *State) Units() int64 { return s.units }

const deadlineCheckMask = 255 // check the clock every 256 recursions of a depth

// tick checks the limits on entering a recursion, counting an abort in
// row, the row of the depth being entered.
func (s *State) tick(row *Stats) error {
	if s.limits.Stop != nil && s.limits.Stop.Load() {
		row.Stops++
		return ErrStopped
	}
	if s.limits.MaxSteps > 0 && s.units >= s.ceiling {
		row.Deadlines++
		return ErrDeadline
	}
	if !s.limits.Deadline.IsZero() && row.Recursions&deadlineCheckMask == 0 {
		if time.Now().After(s.limits.Deadline) {
			row.Deadlines++
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
	return e.evaluate(st, c, u, mode, mode == Optimistic, limits)
}

// EvaluateNoSuper is Evaluate without the super-optimistic first pass,
// used by the ablation benchmarks.
func (e *Evaluator) EvaluateNoSuper(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, limits Limits) (bool, error) {
	return e.evaluate(st, c, u, mode, false, limits)
}

// EvaluateNoSigPrune is pessimistic evaluation with the Proposition 3.2
// signature pruning disabled (label, degree and adjacency checks only),
// used by the ablation benchmarks to isolate the pruning's value. The
// last plan depth runs no signature test in either, so the two differ
// only above it.
func (e *Evaluator) EvaluateNoSigPrune(st *State, c *plan.Compiled, u graph.NodeID, limits Limits) (bool, error) {
	st.noSigPrune = true
	defer func() { st.noSigPrune = false }()
	return e.evaluate(st, c, u, Pessimistic, false, limits)
}

// evaluate grows st to the plan's depth and arms it under limits,
// checking them once up front so that an already-expired deadline or a
// set stop flag aborts even evaluations too small to reach a tick (the
// abort counts in row 0), and searches. With super it first runs the
// cheap capped super-optimistic pass, which often finds a match at once;
// its "no" is not a proof, so the exhaustive pass follows, under the
// same limits.
func (e *Evaluator) evaluate(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, super bool, limits Limits) (bool, error) {
	// Grown before any row is taken, so the row pointers held down the
	// recursion stay valid.
	n := len(c.Steps)
	if len(st.cands) < n {
		st.cands = make([][]scored, n)
	}
	if len(st.runs) < n {
		st.runs = make([]labelRun, n)
	}
	for i := range st.runs[:n] {
		st.runs[i].anchor = -1
	}
	if len(st.depths) < n {
		st.depths = append(st.depths, make([]Stats, n-len(st.depths))...)
	}
	st.limits = limits
	st.ceiling = st.units + limits.MaxSteps
	if limits.Stop != nil && limits.Stop.Load() {
		st.depths[0].Stops++
		return false, ErrStopped
	}
	if !limits.Deadline.IsZero() && time.Now().After(limits.Deadline) {
		st.depths[0].Deadlines++
		return false, ErrDeadline
	}
	if super {
		if found, err := e.run(st, c, u, mode, true); err != nil || found {
			return found, err
		}
	}
	return e.run(st, c, u, mode, false)
}

func (e *Evaluator) run(st *State, c *plan.Compiled, u graph.NodeID, mode Mode, super bool) (bool, error) {
	st.bound = st.bound[:0]

	// Step 0: the pivot binding is supplied by the caller.
	step0 := &c.Steps[0]
	if e.g.Label(u) != step0.Label {
		return false, nil
	}
	row := &st.depths[0]
	row.Candidates++
	st.units++
	if !e.inFilter(step0.QueryNode, u) {
		row.FilterPrunes++
		return false, nil
	}
	if mode == Pessimistic {
		if e.g.Degree(u) < step0.Degree {
			row.DegPrunes++
			return false, nil
		}
		if !st.noSigPrune && !e.satisfies(e.dataSigs.Scaled(u), step0.QueryNode) {
			row.SigPrunes++
			return false, nil
		}
	}
	st.bound = append(st.bound, u)
	found, err := e.extend(st, c, 1, mode, super)
	if found && err == nil {
		row.Matches++
	}
	return found, err
}

// extend recursively binds the query node at plan position depth and
// stops at the first full mapping (Algorithm 1), within a depth's
// generation too, so the counters count what the search examined (Stats).
// The pessimist recurses into each candidate as soon as it passes its
// checks, in neighbour order; the optimist lists and scores the depth's
// candidates, then visits them best first. At the last depth the anchor
// edge and the adjacency checks cover every query edge of the node, so in
// either mode the first candidate that passes them is a complete
// embedding: it is bound at once, with no filter, degree, signature or
// score test.
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
	row := &st.depths[depth]
	if err := st.tick(row); err != nil {
		return false, err
	}
	row.Recursions++
	st.units++
	step := &c.Steps[depth]
	anchor := st.bound[step.Anchor]
	last := depth == len(c.Steps)-1

	// Candidate generation: the anchor's neighbors with the right label
	// (and edge label when the query edge carries one).
	lo, hi := st.labelRun(e.g, depth, anchor, step.Label)
	nbrs := e.g.Neighbors(anchor)
	cands := st.cands[depth][:0]
	qn := step.QueryNode
	for i := lo; i < hi; i++ {
		cand := nbrs[i]
		if super && len(cands) >= SuperOptimisticCap {
			row.CapHits++
			break // GetLimitedCandidates (Algorithm 1, line 4)
		}
		row.Candidates++
		st.units++
		if step.AnchorEdgeLabel != graph.NoLabel && e.g.EdgeLabelAt(anchor, i) != step.AnchorEdgeLabel {
			row.EdgeLabelRejects++
			continue
		}
		if e.isBound(st, cand) {
			row.InjectivityRejects++
			continue
		}
		if !e.checkEdges(st, step, cand) {
			row.AdjacencyRejects++
			continue
		}
		if !last {
			if !e.inFilter(qn, cand) {
				row.FilterPrunes++
				continue
			}
			switch mode {
			case Pessimistic:
				// Aggressive pruning: degree then signature (line 7).
				if e.g.Degree(cand) < step.Degree {
					row.DegPrunes++
					continue
				}
				if !st.noSigPrune && !e.satisfies(e.dataSigs.Scaled(cand), qn) {
					row.SigPrunes++
					continue
				}
			case Optimistic:
				row.ScoreCalcs++
				cands = append(cands, scored{node: cand, score: e.score(e.dataSigs.Scaled(cand), qn)})
				continue
			}
		}
		st.bound = append(st.bound, cand)
		ok, err := e.extend(st, c, depth+1, mode, super)
		st.bound = st.bound[:len(st.bound)-1]
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil // stop at the first full mapping
		}
	}
	st.cands[depth] = cands // keep grown capacity

	for i := range cands {
		if i <= optimisticSelect && nextOptimistic(cands, i) {
			row.Sorts++
		}
		st.bound = append(st.bound, cands[i].node)
		ok, err := e.extend(st, c, depth+1, mode, super)
		st.bound = st.bound[:len(st.bound)-1]
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// checkWitness deep-validates the complete plan-ordered binding in
// st.bound as an embedding of the query (injectivity, label and edge
// preservation) and, on a filtered evaluator, checks that every bound
// node is in its query node's set: each witness tests the filter's
// soundness. Only called when invariant checking is enabled.
func (e *Evaluator) checkWitness(st *State, c *plan.Compiled) error {
	mapping := make([]graph.NodeID, e.query.G.NumNodes())
	for i := range mapping {
		mapping[i] = -1
	}
	for pos, u := range st.bound {
		mapping[c.Steps[pos].QueryNode] = u
	}
	if err := invariant.CheckEmbedding(e.g, e.query, mapping); err != nil {
		return err
	}
	for v, u := range mapping {
		if !e.inFilter(graph.NodeID(v), u) {
			return &invariant.Violation{Subsystem: "filter", Detail: fmt.Sprintf("query node %d bound to data node %d outside its candidate set", v, u)}
		}
	}
	return nil
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
