package shard

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/smartpsi"
)

// Node is one shard: an engine over the whole data graph plus the
// ownership predicate of its share of the partition. It answers a query
// by evaluating only the pivot candidates it owns, so its bindings are
// global node ids as they stand and a coordinator unions shard responses
// without translation. A `psi-serve -shard-of N -shard-index i` process
// serves one (same wire format, admission and metrics as any server);
// an in-process Cluster holds N of them over one shared engine and
// scatters to them through the same Scatter a fleet coordinator uses.
type Node struct {
	eng       *smartpsi.Engine
	index, of int
	owned     int // nodes of the graph this shard owns
	owns      func(graph.NodeID) bool
}

// NewNode partitions g deterministically and builds the engine shard
// index of n answers from. Every fleet member loads the same graph file,
// so the plans agree without coordination.
func NewNode(g *graph.Graph, opts Options, n, index int) (*Node, error) {
	plan, err := Partition(g, n)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= n {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", index, n)
	}
	eng, err := smartpsi.NewEngine(g, opts.Engine)
	if err != nil {
		return nil, err
	}
	return newNode(eng, plan, index), nil
}

func newNode(eng *smartpsi.Engine, p Plan, index int) *Node {
	return &Node{eng: eng, index: index, of: p.N, owned: len(p.OwnedNodes(index)), owns: p.Owns(index)}
}

// Graph returns the full data graph.
func (n *Node) Graph() *graph.Graph { return n.eng.Graph() }

// ShardStatuses reports this node's own health row; a coordinator checks
// its index and shard count against the node's place in -shard-addrs.
func (n *Node) ShardStatuses() []Status {
	return []Status{{
		Index:      n.index,
		Of:         n.of,
		Healthy:    true,
		OwnedNodes: n.owned,
		HaloNodes:  n.eng.Graph().NumNodes() - n.owned,
	}}
}

// EvaluateTagged evaluates the candidates this shard owns on the full
// graph; the verdict for each is the single engine's by construction.
func (n *Node) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	return n.eng.Run(smartpsi.Request{Query: q, Deadline: deadline, ID: requestID, Fingerprint: fingerprint, Owns: n.owns})
}
