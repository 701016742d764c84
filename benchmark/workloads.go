package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fsm"
	"repro/internal/graph"
	wl "repro/internal/workload"
)

// workload is one traffic mix. Load is closed loop: each of clients
// sends its next request only when the previous reply is in, which is
// how PSI's callers (FSM miner workers, analytics jobs) behave.
type workload struct {
	name, why string
	dataset   string
	clients   int
	// batch is how many queries one HTTP request carries: 1 is POST
	// /v1/psi, more is POST /v1/psi/batch.
	batch int
	// perSecond fixes the length of the measured sequence: --seconds
	// times perSecond HTTP requests, whatever the machine or the commit.
	// It was tuned so that one second of --seconds is about one second
	// of measuring at the commit that added the benchmark; it is frozen
	// so that two commits answer the same requests.
	perSecond int
	// generate makes the sequence that sends n queries measured.
	generate func(g *graph.Graph, seed int64, n int) (*sequence, error)
}

// sequence is the generated input of one run: the distinct queries,
// the order they are sent in, and which of them get their answers
// compared with the reference evaluator.
//
// What is sent is the workload's own and does not depend on the seed:
// every seed sends the same queries the same number of times, in the
// same five segments. The seed shuffles the order inside each segment
// and the order of the segments. Runs on different seeds therefore do
// identical work and differ only in what a request's neighbours are;
// what is left of their spread is the machine's.
type sequence struct {
	queries  []graph.Query
	warm     []int   // unmeasured warm-up order (indices into queries)
	measured [][]int // measured order, one slice per segment
	verify   []int   // queries whose bindings are checked against server.Reference
}

// segments is how many equal parts the measured sequence is sent in.
// Each request metric is its best value over them (see summarize), so
// stretches in which the machine was disturbed cost segments and not
// the metric.
const segments = 5

// populationSeed fixes which queries a workload extracts.
const populationSeed = 1

// flat returns the measured order as one slice.
func (s *sequence) flat() []int {
	var out []int
	for _, seg := range s.measured {
		out = append(out, seg...)
	}
	return out
}

// shuffled reorders each segment in place, and then the segments, by
// seed.
func shuffled(measured [][]int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	for _, seg := range measured {
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
	}
	rng.Shuffle(len(measured), func(i, j int) { measured[i], measured[j] = measured[j], measured[i] })
	return measured
}

// dealt deals the indices lo..hi-1 round-robin into the segments,
// dropping a remainder so that all segments are equally long.
func dealt(lo, hi int) [][]int {
	out := make([][]int, segments)
	for i := lo; i < lo+(hi-lo)/segments*segments; i++ {
		out[(i-lo)%segments] = append(out[(i-lo)%segments], i)
	}
	return out
}

// warmShare of the measured count is sent unmeasured first, against
// the same fresh server: connections, heap and page cache settle.
const warmShare = 10

// minTrainNodes mirrors smartpsi.Options.MinTrainNodes' default: with
// fewer pivot candidates the engine skips training (its no-ML path).
const minTrainNodes = 64

var workloads = []workload{
	{
		name:    "human_distinct",
		why:     "never-repeated size 4-7 queries on Human price prepare+train in full; the bypass for any fingerprint-keyed cache",
		dataset: "human", clients: 2, batch: 1, perSecond: 450,
		generate: genHumanDistinct,
	},
	{
		name:    "human_repeat",
		why:     "16 Human queries repeated in Zipf(1.1) proportions: every layer's work is shared between requests, the case a prepared-query cache must win",
		dataset: "human", clients: 2, batch: 1, perSecond: 580,
		generate: genHumanRepeat,
	},
	{
		name:    "youtube_eval",
		why:     "distinct size-4 queries on YouTube 1/50: candidate evaluation is most of the time and signatures most of the memory",
		dataset: "youtube", clients: 2, batch: 1, perSecond: 15,
		generate: genYoutubeEval,
	},
	{
		name:    "yeast_overhead",
		why:     "one client posting batches of 32 rare-pivot-label Yeast queries on the no-ML path: evaluation is tens of us, so the fixed cost of a query (server overhead, engine prepare) is the time",
		dataset: "yeast", clients: 1, batch: yeastBatch, perSecond: 25 * yeastPool / yeastBatch,
		generate: genYeastOverhead,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distinctQueries extracts queries with workload.ExtractQuery (the paper's generator), sizes
// taken round-robin, until n of them have pairwise different exact
// fingerprints and pass accept. Equal Exact fingerprints mean equal
// answers, so "distinct" is distinct as far as any cache could tell.
func distinctQueries(g *graph.Graph, rng *rand.Rand, sizes []int, n int, accept func(graph.Query) bool) ([]graph.Query, error) {
	out := make([]graph.Query, 0, n)
	seen := make(map[uint64]bool, n)
	for i := 0; len(out) < n; i++ {
		if i > 100*n+10000 {
			return nil, fmt.Errorf("only %d of %d distinct queries after %d extractions", len(out), n, i)
		}
		q, err := wl.ExtractQuery(g, sizes[i%len(sizes)], rng)
		if err != nil {
			return nil, err
		}
		fp := fsm.PivotFingerprint(q, 0).Exact
		if seen[fp] || (accept != nil && !accept(q)) {
			continue
		}
		seen[fp] = true
		out = append(out, q)
	}
	return out, nil
}

func indexRange(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func cycle(pool, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % pool
	}
	return out
}

var humanSizes = []int{4, 5, 6, 7}

// genHumanDistinct: n + n/warmShare never-seen shapes, each sent once;
// the warm-up set and the measured set share no fingerprint. One in
// eight measured answers is compared with the reference.
func genHumanDistinct(g *graph.Graph, seed int64, n int) (*sequence, error) {
	warm := n / warmShare
	qs, err := distinctQueries(g, rand.New(rand.NewSource(populationSeed)), humanSizes, warm+n, nil)
	if err != nil {
		return nil, err
	}
	s := &sequence{queries: qs, warm: indexRange(0, warm), measured: shuffled(dealt(warm, warm+n), seed)}
	for i := warm; i < warm+n; i += 8 {
		s.verify = append(s.verify, i)
	}
	return s, nil
}

const (
	// hotSetSize queries repeat. Which ones is the workload's own: the
	// costs of 16 Human queries span 1-100 ms, so a hot set drawn per
	// seed would make every metric a property of whichever query got
	// rank 1.
	hotSetSize = 16
	zipfS      = 1.1
)

// zipfCounts splits n requests over ranks 0..ranks-1 in proportion to
// 1/(rank+1)^s, by largest remainder, so that the counts add up to n.
func zipfCounts(ranks, n int, s float64) []int {
	weight := make([]float64, ranks)
	sum := 0.0
	for r := range weight {
		weight[r] = 1 / math.Pow(float64(r+1), s)
		sum += weight[r]
	}
	counts := make([]int, ranks)
	byRemainder := make([]int, ranks)
	left := n
	for r := range counts {
		counts[r] = int(float64(n) * weight[r] / sum)
		left -= counts[r]
		byRemainder[r] = r
	}
	remainder := func(r int) float64 { return float64(n)*weight[r]/sum - float64(counts[r]) }
	sort.SliceStable(byRemainder, func(a, b int) bool { return remainder(byRemainder[a]) > remainder(byRemainder[b]) })
	for _, r := range byRemainder[:left] {
		counts[r]++
	}
	return counts
}

// genHumanRepeat: every segment holds the hot set in exact Zipf(1.1)
// proportions; the warm-up touches all 16; every answer is compared
// with the reference.
func genHumanRepeat(g *graph.Graph, seed int64, n int) (*sequence, error) {
	qs, err := distinctQueries(g, rand.New(rand.NewSource(populationSeed)), humanSizes, hotSetSize, nil)
	if err != nil {
		return nil, err
	}
	measured := make([][]int, segments)
	for k := range measured {
		for rank, count := range zipfCounts(hotSetSize, n/segments, zipfS) {
			for ; count > 0; count-- {
				measured[k] = append(measured[k], rank)
			}
		}
	}
	return &sequence{queries: qs, warm: cycle(hotSetSize, max(n/warmShare, hotSetSize)), measured: shuffled(measured, seed), verify: indexRange(0, hotSetSize)}, nil
}

// youtubeVerify answers are compared with the reference; a reference
// evaluation here costs about as much as the request itself.
const youtubeVerify = 32

// genYoutubeEval: distinct size-4 queries, each sent once. Size 4
// because sizes >= 5 have a multi-second tail on this graph that turns
// into timing-dependent 504s. A run fits a few hundred of them and
// their costs span 10 ms to 2 s, so which ones are sent has to be the
// workload's own: drawn per seed, p95 moved by 20% with the draw alone.
func genYoutubeEval(g *graph.Graph, seed int64, n int) (*sequence, error) {
	warm := n / warmShare
	qs, err := distinctQueries(g, rand.New(rand.NewSource(populationSeed)), []int{4}, warm+n, nil)
	if err != nil {
		return nil, err
	}
	s := &sequence{queries: qs, warm: indexRange(0, warm), measured: shuffled(dealt(warm, warm+n), seed)}
	for i := 0; i < youtubeVerify && i < n; i++ {
		s.verify = append(s.verify, warm+i*(n/min(youtubeVerify, n)))
	}
	return s, nil
}

// yeastPool divides the queries yeast_overhead sends per second of
// --seconds, so a segment is a whole number of passes over the pool at
// any --seconds; yeastBatch divides the pool.
//
// The queries go 32 to a request because one to a request measures the
// machine: a sub-millisecond request over loopback is two thirds
// transport and thread wake-ups (0.2 of 0.3 ms, and 0.2 of the
// server's 0.3 ms of CPU), which nothing in the repository can move
// and which on a shared two-core VM changed by a third between runs
// of the same code. A batch pays that once for 32 queries, each of
// which still goes through decoding, validation, fingerprinting,
// admission, the engine, observation and encoding on its own.
const (
	yeastPool  = 512
	yeastBatch = 32
)

// genYeastOverhead: a pool of size-3 queries whose pivot label has
// fewer than minTrainNodes data nodes — a structural rule, so the
// engine takes its no-ML path and evaluation costs tens of
// microseconds — cycled in an order shuffled by seed. Every answer is
// compared with the reference.
func genYeastOverhead(g *graph.Graph, seed int64, n int) (*sequence, error) {
	qs, err := distinctQueries(g, rand.New(rand.NewSource(populationSeed)), []int{3}, yeastPool, func(q graph.Query) bool {
		return int(g.LabelFrequency(q.G.Label(q.Pivot))) < minTrainNodes
	})
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(yeastPool)
	measured := make([][]int, segments)
	for k := range measured {
		for i := 0; i < n/segments; i++ {
			measured[k] = append(measured[k], order[i%yeastPool])
		}
	}
	return &sequence{queries: qs, warm: cycle(yeastPool, n/warmShare), measured: measured, verify: indexRange(0, yeastPool)}, nil
}
