package shard

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/smartpsi"
)

// Options configures an in-process Cluster or a fleet Node.
type Options struct {
	Shards   int      // shard count N (Cluster; a Node takes it from -shard-of)
	Strategy Strategy // unread; see Strategy
	// Workers used to size a per-shard evaluation pool. A scatter now
	// runs each shard on its own goroutine, bounded by the server's
	// admission; nothing reads the field. It is still declared because
	// the frozen benchmark/ module sets it.
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

// Cluster is the in-process twin of a fleet: N shards over one engine in
// one process, each evaluating the candidates its shard owns, scattered
// and gathered as a coordinator does over the wire (Scatter). It is not a
// serving mode; the agreement harness, the server's tests and the
// benchmark's shard layer use it to check and price the scatter without
// a network. It implements the server's evaluator interfaces: a
// scattered evaluation answers with the exact single-engine binding set
// while all shards are up, and degrades to a flagged partial answer when
// one fails.
type Cluster struct {
	g       *graph.Graph
	plan    Plan
	nodes   []*Node
	evals   []evaluator // nodes[i], unless a test swapped it
	metrics []*obs.PerShard
}

// NewCluster partitions g and warms one engine, which every shard runs
// its owned candidates on: one signature table and one prepared-query
// cache whatever the shard count.
func NewCluster(g *graph.Graph, opts Options) (*Cluster, error) {
	plan, err := Partition(g, opts.Shards)
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
		c.nodes = append(c.nodes, node)
		c.evals = append(c.evals, node)
		c.metrics = append(c.metrics, obs.ShardMetrics(i))
	}
	obs.ShardCount.Set(int64(opts.Shards))
	return c, nil
}

// Close does nothing: a Cluster holds no goroutines between queries. It
// is still declared because the frozen benchmark/ module calls it.
func (c *Cluster) Close() {}

// Graph returns the full data graph (the server validates query labels
// against it).
func (c *Cluster) Graph() *graph.Graph { return c.g }

// ShardStatuses reports per-shard health; in-process shards are healthy
// by construction.
func (c *Cluster) ShardStatuses() []Status {
	out := make([]Status, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = Status{Index: i, Of: len(c.nodes), Healthy: true, OwnedNodes: n.owned}
	}
	return out
}

// EvaluateTagged satisfies the server evaluator interface with the
// gather's merged result.
func (c *Cluster) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	g, err := c.EvaluateScatter(q, deadline, requestID, fingerprint)
	if err != nil {
		return nil, err
	}
	return g.Res, nil
}

// EvaluateScatter fans the query out to every shard and gathers the
// owned bindings.
func (c *Cluster) EvaluateScatter(q graph.Query, deadline time.Time, requestID, fingerprint string) (*Gather, error) {
	return Scatter(c.metrics, deadline, func(i int, d time.Time) (*smartpsi.Result, error) {
		return c.evals[i].EvaluateTagged(q, d, requestID, fingerprint)
	})
}
