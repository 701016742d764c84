package smartpsi

// The prepared-query cache. The paper trains models α/β per query
// (§4.2) because it evaluates each query once; a server sees the same
// query again. An Engine therefore keeps the product of prepare and
// train — the artifact — for queries it has seen repeat, and sends a
// repeat straight to execute.
//
// It is not an answer cache. An artifact only chooses how to search:
// bindings are recomputed by its psi.Evaluator on every request, and the
// §4.3 recovery ladder keeps each verdict exact whatever a stale
// planTiming says. A kept artifact's evaluator carries a candidate
// filter (psi.Evaluator.Filtered, built at its first warm hit), which
// refuses a pivot candidate before any decision: that is a structural
// proof from the graph, like Proposition 3.2's, rebuilt from nothing a
// request answered, not a recalled verdict. What must be right is the query-side half
// (evaluator, compiled plans), which names query node IDs; so a 64-bit
// key match counts as a hit only after the stored query is verified
// equal, node for node, with the same pivot.

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
)

// artifact is everything prepare and train produce for one query.
// prepare fills q, ev and compiled, train fills alpha, beta and timing;
// after that those fields are read-only. timing and decisions are the
// two parts execute updates, each safe for concurrent use, so any number
// of requests may execute one artifact at once; filtered is written
// once, through filterOnce.
type artifact struct {
	q graph.Query
	// ev holds the query's signatures and no candidate filter: training
	// and the run that stores the artifact execute on it.
	ev       *psi.Evaluator
	compiled []*plan.Compiled // model β's classes; [0] is the heuristic plan

	// filtered is ev.Filtered(), built by the first warm hit
	// (warmEvaluator); every warm run executes on it.
	filterOnce sync.Once
	filtered   *psi.Evaluator

	alpha, beta *ml.Forest  // nil when ablated
	timing      *planTiming // §4.3 MaxTime averages
	// decisions is the §4.2.3 prediction memo, one slot per node with
	// the pivot's label (queryRun.slot), holding encodeDecision of the
	// node's decision once a rung-1 resolution has stored it. It is nil
	// on an artifact the prepared cache does not keep. The paper keys its
	// cache by signature, so distinct nodes with equal rows share an
	// entry; a slot is one node's own prediction from these forests, so a
	// hit always equals a fresh one.
	decisions []atomic.Uint32

	key   uint64
	bytes int64
}

// A decision slot is 0 while empty, else slotFull with the mode bit and
// the plan index: the decision exactly.
const (
	slotFull       = 1 << 31
	slotOptimistic = 1 << 30
)

func encodeDecision(d decision) uint32 {
	v := uint32(slotFull) | uint32(d.planIdx)
	if d.mode == psi.Optimistic {
		v |= slotOptimistic
	}
	return v
}

// decodeDecision returns the decision in slot value v, and false when
// the slot is empty.
func decodeDecision(v uint32) (decision, bool) {
	d := decision{mode: psi.Pessimistic, planIdx: int(v &^ (slotFull | slotOptimistic))}
	if v&slotOptimistic != 0 {
		d.mode = psi.Optimistic
	}
	return d, v != 0
}

const (
	// Accounting units. A forest node is held twice: as ml's 32-byte
	// tree node and as its 16-byte node of the flat layout prediction
	// walks. A decision slot is 4 bytes. The base covers evaluator,
	// plans and planTiming of a ten-node query; the candidate filter is
	// charged at its size, ⌈N/64⌉·8 bytes per query node (592 B on
	// Human, 12.8 KB on YouTube 1/50).
	forestNodeBytes   = 32 + 16
	decisionSlotBytes = 4
	artifactBaseBytes = 4 << 10

	// Charged size-4 artifacts run from 10-40 KB (Human, about 300
	// candidates) to 60-300 KB (YouTube 1/50, up to 11,000 candidates;
	// that server peaks at about 60 MB resident). The byte cap holds a
	// hundred-odd of the largest, about half what such a server already
	// uses; the entry cap bounds the count when artifacts are small
	// (256 x 40 KB = 10 MB) and covers four times the shapes /queryz
	// tracks (obs.DefaultWorkloadK).
	preparedMaxEntries = 256
	preparedMaxBytes   = 32 << 20

	// seenSlots sizes the direct-mapped table of recently seen keys
	// behind admit-on-second-sighting (4096 x 8 B = 32 KB per engine):
	// a never-repeated query costs one hash and one probe and retains
	// nothing. A slot collision only forgets a sighting.
	seenSlots = 4096
)

// size charges an artifact for its forests, decision slots and filter.
// The filter is charged when the artifact is stored, before it is built
// (warmEvaluator), at the size psi.Evaluator.FilterBytes will report.
func (a *artifact) size() int64 {
	nodes := 0
	if a.alpha != nil {
		nodes += a.alpha.NumNodes()
	}
	if a.beta != nil {
		nodes += a.beta.NumNodes()
	}
	bytes := artifactBaseBytes + int64(nodes)*forestNodeBytes + int64(len(a.decisions))*decisionSlotBytes
	if a.ev != nil {
		bytes += int64(a.q.Size()) * int64((a.ev.Graph().NumNodes()+63)/64) * 8
	}
	return bytes
}

// warmEvaluator returns the evaluator a warm run executes on: ev with a
// candidate filter. The first call builds it and reports the build's
// time; every other call, concurrent ones included, waits for that build
// and reports 0.
func (a *artifact) warmEvaluator() (*psi.Evaluator, time.Duration) {
	var took time.Duration
	a.filterOnce.Do(func() {
		start := time.Now()
		a.filtered = a.ev.Filtered()
		took = time.Since(start)
	})
	return a.filtered, took
}

// preparedCache is an Engine's bounded LRU of artifacts, keyed by
// hashQuery and verified on lookup.
type preparedCache struct {
	// hash is hashQuery; the collision tests swap in a degenerate one.
	hash func(graph.Query) uint64

	mu      sync.Mutex
	entries map[uint64]*list.Element // of *artifact
	lru     *list.List               // front: most recently used
	bytes   int64
	seen    [seenSlots]uint64
}

func newPreparedCache() *preparedCache {
	return &preparedCache{hash: hashQuery, entries: make(map[uint64]*list.Element), lru: list.New()}
}

// lookup returns the artifact of a query verified equal to q, or nil.
// On a miss, admit reports whether this exact key was seen before, i.e.
// whether the artifact the caller is about to train is worth storing
// under key. A key match that fails verification is a miss served cold
// and never admitted: the first query to take a key keeps it.
//
// The counters are updated unconditionally, like the serving-path
// metrics: one atomic add per ML-path request, and the bytes gauge must
// not drift when collection is toggled mid-flight.
func (c *preparedCache) lookup(q graph.Query) (art *artifact, key uint64, admit bool) {
	if c == nil {
		return nil, 0, false
	}
	key = c.hash(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		art = el.Value.(*artifact)
		if art.q.Pivot == q.Pivot && art.q.G.NumLabels() == q.G.NumLabels() && graph.Equal(art.q.G, q.G) {
			c.lru.MoveToFront(el)
			obs.SmartPreparedHits.Inc()
			return art, key, false
		}
		obs.SmartPreparedMismatches.Inc()
		obs.SmartPreparedMisses.Inc()
		return nil, key, false
	}
	obs.SmartPreparedMisses.Inc()
	slot := &c.seen[key%seenSlots]
	admit = *slot == key
	*slot = key
	return nil, key, admit
}

// store retains art under key unless another request got there first
// (two concurrent cold requests both train; the first store wins), then
// evicts from the cold end until both caps hold.
func (c *preparedCache) store(key uint64, art *artifact) {
	art.key, art.bytes = key, art.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.lru.PushFront(art)
	c.bytes += art.bytes
	obs.SmartPreparedBytes.Add(art.bytes)
	for len(c.entries) > preparedMaxEntries || c.bytes > preparedMaxBytes {
		old := c.lru.Remove(c.lru.Back()).(*artifact)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		obs.SmartPreparedBytes.Add(-old.bytes)
		obs.SmartPreparedEvictions.Inc()
	}
}

// hashQuery is a cheap 64-bit hash of q as numbered: node labels, each
// node's adjacency run (already sorted by neighbour label then id, with
// edge labels), and the pivot. Renumbering an isomorphic query changes
// it; such a query is a miss.
func hashQuery(q graph.Query) uint64 {
	const prime = 1099511628211 // FNV-1a, over words instead of bytes
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * prime }
	mix(int64(q.Pivot))
	for u := graph.NodeID(0); int(u) < q.G.NumNodes(); u++ {
		mix(int64(q.G.Label(u)))
		run := q.G.Neighbors(u)
		mix(int64(len(run)))
		for i, w := range run {
			mix(int64(w))
			mix(int64(q.G.EdgeLabelAt(u, i)))
		}
	}
	// Finalize (splitmix64's tail) so the low bits that pick a seen
	// slot depend on every input word.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}
