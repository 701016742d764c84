package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// Options configures an in-process Cluster or a fleet Node.
type Options struct {
	Shards   int      // shard count N (Cluster; a Node takes it from -shard-of)
	Strategy Strategy // ownership partitioner
	// Workers is the evaluation worker-pool size per shard (0 means 1).
	Workers int
	Engine  smartpsi.Options // engine configuration
}

// RadiusError used to reject a query whose pivot was deeper than the
// halo a graph slice carried. Shards hold the whole graph now and nothing
// returns it; the type is still declared because the frozen benchmark/
// module matches on it.
type RadiusError struct {
	Eccentricity int
	Radius       int
}

func (e *RadiusError) Error() string {
	return fmt.Sprintf("shard: query pivot eccentricity %d exceeds the shard query radius %d", e.Eccentricity, e.Radius)
}

// ErrBusy reports that a shard's evaluation queue stayed full past the
// request deadline.
var ErrBusy = errors.New("shard: shard worker queue full")

// Outcome is one shard's contribution to a gather.
type Outcome struct {
	Shard    int           `json:"shard"`
	Bindings int           `json:"bindings"`
	Elapsed  time.Duration `json:"-"`
	TimedOut bool          `json:"timed_out,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// OK reports whether the shard answered.
func (o Outcome) OK() bool { return o.Err == "" && !o.TimedOut }

// Gather is the merged answer of a scatter: the deduplicated union of
// owned bindings plus per-shard outcomes. Res carries the merged
// counters in smartpsi.Result form so the serving observe path (funnel,
// workload sketch, profiles) treats a scattered query like any other.
type Gather struct {
	Res      *smartpsi.Result
	Partial  bool // at least one shard's answer is missing
	Dups     int64
	Outcomes []Outcome
}

// Status is one shard's health row in /readyz. Index and Of are the
// shard's identity (index i of Of shards). HaloNodes counts the nodes
// resident on the shard that it does not own: 0 for in-process shards,
// which share one copy of the graph, and every other node for a fleet
// node, which holds the whole graph.
type Status struct {
	Index      int    `json:"index"`
	Of         int    `json:"of,omitempty"`
	Addr       string `json:"addr,omitempty"`
	Healthy    bool   `json:"healthy"`
	OwnedNodes int    `json:"owned_nodes,omitempty"`
	HaloNodes  int    `json:"halo_nodes,omitempty"`
	Err        string `json:"error,omitempty"`
}

// evaluator is the per-shard evaluation seam; *Node implements it, and
// tests substitute failing or slow fakes.
type evaluator interface {
	EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error)
}

type task struct {
	q           graph.Query
	deadline    time.Time
	requestID   string
	fingerprint string
	out         chan reply // buffered(1): a late worker never blocks
}

type reply struct {
	shard   int
	res     *smartpsi.Result
	elapsed time.Duration
	err     error
}

// shardWorker is one shard and its evaluation pool.
type shardWorker struct {
	node    *Node
	eval    evaluator // node, unless a test swapped it
	tasks   chan *task
	metrics *obs.PerShard
}

func (w *shardWorker) run() {
	for t := range w.tasks {
		start := time.Now()
		res, err := w.eval.EvaluateTagged(t.q, t.deadline, t.requestID, t.fingerprint)
		t.out <- reply{shard: w.node.index, res: res, elapsed: time.Since(start), err: err}
	}
}

// Cluster evaluates queries by scattering them across in-process
// shards. It implements the server's evaluator interfaces: a scattered
// evaluation answers with the exact single-engine binding set while all
// shards are up, and degrades to a flagged partial answer when one
// fails.
type Cluster struct {
	g       *graph.Graph
	plan    Plan
	workers []*shardWorker
}

// NewCluster partitions g and warms one engine, which every shard runs
// its owned candidates on: one signature table and one prepared-query
// cache whatever the shard count.
func NewCluster(g *graph.Graph, opts Options) (*Cluster, error) {
	plan, err := Partition(g, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}
	eng, err := smartpsi.NewEngine(g, opts.Engine)
	if err != nil {
		return nil, err
	}
	c := &Cluster{g: g, plan: plan}
	for i := 0; i < opts.Shards; i++ {
		node := newNode(eng, plan, i)
		w := &shardWorker{
			node:    node,
			eval:    node,
			tasks:   make(chan *task, 64),
			metrics: obs.ShardMetrics(i),
		}
		pool := opts.Workers
		if pool < 1 {
			pool = 1
		}
		for p := 0; p < pool; p++ {
			//lint:ignore gojoin workers exit when Close closes w.tasks; each in-flight task replies on a buffered channel so none is abandoned
			go w.run()
		}
		c.workers = append(c.workers, w)
	}
	obs.ShardCount.Set(int64(opts.Shards))
	return c, nil
}

// Close stops every shard's worker pool.
func (c *Cluster) Close() {
	for _, w := range c.workers {
		close(w.tasks)
	}
	c.workers = nil
}

// Graph returns the full data graph (the server validates query labels
// against it).
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Plan returns the ownership partition.
func (c *Cluster) Plan() Plan { return c.plan }

// ShardStatuses reports per-shard health; in-process shards are healthy
// by construction.
func (c *Cluster) ShardStatuses() []Status {
	out := make([]Status, len(c.workers))
	for i, w := range c.workers {
		out[i] = Status{Index: i, Of: len(c.workers), Healthy: true, OwnedNodes: w.node.owned}
	}
	return out
}

// EvaluateBudget satisfies the plain server evaluator interface.
func (c *Cluster) EvaluateBudget(q graph.Query, deadline time.Time) (*smartpsi.Result, error) {
	g, err := c.EvaluateScatter(q, deadline, "", "")
	if err != nil {
		return nil, err
	}
	return g.Res, nil
}

// EvaluateScatter fans the query out to every shard and gathers the
// owned bindings.
func (c *Cluster) EvaluateScatter(q graph.Query, deadline time.Time, requestID, fingerprint string) (*Gather, error) {
	start := time.Now()
	obs.ShardScatters.Inc()
	shardDeadline := SliceDeadline(deadline)
	replies := make(chan reply, len(c.workers))
	for _, w := range c.workers {
		go func(w *shardWorker) {
			w.metrics.Queries.Inc()
			replies <- w.dispatch(q, shardDeadline, deadline, requestID, fingerprint)
		}(w)
	}
	outcomes := make([]Outcome, len(c.workers))
	results := make([]*smartpsi.Result, len(c.workers))
	for range c.workers {
		r := <-replies
		o := Outcome{Shard: r.shard, Elapsed: r.elapsed}
		w := c.workers[r.shard]
		w.metrics.Seconds.ObserveSeconds(r.elapsed.Seconds())
		switch {
		case isDeadline(r.err):
			o.TimedOut = true
			w.metrics.Timeouts.Inc()
		case r.err != nil:
			o.Err = r.err.Error()
			w.metrics.Errors.Inc()
		default:
			o.Bindings = len(r.res.Bindings)
			results[r.shard] = r.res
		}
		outcomes[r.shard] = o
	}
	g, err := Merge(outcomes, results, start)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// dispatch submits the task to the shard's pool and waits for its
// reply, giving up (timeout) if the queue stays full past the overall
// deadline or the reply misses the deadline by more than a grace
// period.
func (w *shardWorker) dispatch(q graph.Query, shardDeadline, deadline time.Time, requestID, fingerprint string) reply {
	t := &task{q: q, deadline: shardDeadline, requestID: requestID, fingerprint: fingerprint, out: make(chan reply, 1)}
	submit := expiry(deadline, 0)
	select {
	// Close runs only after the server has drained, so no dispatch can
	// race the channel close.
	case w.tasks <- t:
	case <-submit:
		return reply{shard: w.node.index, err: ErrBusy}
	}
	// The engine respects the deadline itself; the grace period only
	// guards against a wedged evaluation, and the buffered reply channel
	// means a late worker completes without blocking.
	wait := expiry(deadline, 250*time.Millisecond)
	select {
	case r := <-t.out:
		return r
	case <-wait:
		return reply{shard: w.node.index, err: psi.ErrDeadline}
	}
}

// expiry returns a channel that fires slack after the deadline, or nil
// (blocks forever) when no deadline is set.
func expiry(deadline time.Time, slack time.Duration) <-chan time.Time {
	if deadline.IsZero() {
		return nil
	}
	d := time.Until(deadline) + slack
	if d < 0 {
		d = 0
	}
	return time.After(d)
}

// SliceDeadline reserves a gather margin out of the remaining budget:
// shards get 95% of it (clamped to [5ms, 250ms] of margin) so the
// coordinator can merge and respond before its own deadline.
func SliceDeadline(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return deadline
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return deadline
	}
	margin := remaining / 20
	if margin < 5*time.Millisecond {
		margin = 5 * time.Millisecond
	} else if margin > 250*time.Millisecond {
		margin = 250 * time.Millisecond
	}
	if margin >= remaining {
		return deadline
	}
	return deadline.Add(-margin)
}

// isDeadline classifies an error as a deadline expiry.
func isDeadline(err error) bool {
	return err != nil && (errors.Is(err, psi.ErrDeadline) || errors.Is(err, context.DeadlineExceeded))
}

// Merge folds per-shard outcomes into a Gather; results[i] must be
// nil exactly when outcomes[i] is not OK. The in-process Cluster and
// the HTTP coordinator share it, so degradation semantics agree across
// deployment modes: all shards lost to deadlines is a deadline error
// (504), all lost with at least one hard failure surfaces that error
// (500), and a strict subset lost flags the answer partial.
func Merge(outcomes []Outcome, results []*smartpsi.Result, start time.Time) (*Gather, error) {
	ok, timedOut := 0, 0
	var firstErr error
	for i, o := range outcomes {
		switch {
		case o.OK():
			ok++
		case o.TimedOut:
			timedOut++
		case firstErr == nil:
			firstErr = fmt.Errorf("shard %d: %s", i, o.Err)
		}
	}
	if ok == 0 {
		if timedOut == len(outcomes) {
			return nil, psi.ErrDeadline
		}
		if firstErr == nil {
			firstErr = errors.New("shard: no shard answered")
		}
		return nil, firstErr
	}

	merged := &smartpsi.Result{}
	var bindings []graph.NodeID
	var slowest time.Duration
	for i, res := range results {
		if res == nil {
			continue
		}
		bindings = append(bindings, res.Bindings...)
		merged.Candidates += res.Candidates
		merged.TrainedNodes += res.TrainedNodes
		merged.CacheHits += res.CacheHits
		merged.CacheMisses += res.CacheMisses
		merged.Flips += res.Flips
		merged.Fallbacks += res.Fallbacks
		merged.UsedML = merged.UsedML || res.UsedML
		merged.Work.Add(res.Work)
		merged.Tallies.Add(&res.Tallies)
		if outcomes[i].Elapsed >= slowest {
			// The profile stays one shard's record (the slowest); the
			// tallies above are the fleet's sum.
			slowest = outcomes[i].Elapsed
			merged.Profile = res.Profile
		}
	}
	sort.Slice(bindings, func(i, j int) bool { return bindings[i] < bindings[j] })
	dups := int64(0)
	uniq := bindings[:0]
	for i, u := range bindings {
		if i > 0 && u == bindings[i-1] {
			dups++
			continue
		}
		uniq = append(uniq, u)
	}
	merged.Bindings = uniq
	merged.EvalTime = slowest
	merged.TotalTime = time.Since(start)
	if dups > 0 {
		obs.ShardDupDrops.Add(dups)
	}
	partial := ok < len(outcomes)
	if partial {
		obs.ShardPartials.Inc()
	}
	obs.ShardGatherSecs.ObserveSeconds(time.Since(start).Seconds())
	return &Gather{Res: merged, Partial: partial, Dups: dups, Outcomes: outcomes}, nil
}
