// Package shard evaluates pivoted-subgraph-isomorphism queries by
// scatter-gather over pivot candidates, the paper's distributed setting
// (§5.5): every shard holds the whole data graph and owns a share of its
// nodes, evaluates a query only on the candidates it owns, and a gather
// unions the answers. A verdict computed on the full graph is the single
// engine's by construction, so the union equals the single-engine answer
// exactly (see ARCHITECTURE.md, "Sharded serving") — the equivalence is
// checked by the agreement harness in internal/difftest.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy is unread: ownership is always Owner's label hash. The type
// and LabelHash stay declared because the frozen benchmark/ module sets
// Options.Strategy.
type Strategy int

// LabelHash is the only partitioner, Owner.
const LabelHash Strategy = 0

// Owner returns the shard, of n, that owns node u of label l:
// hash(u, l) mod n. It is stateless, deterministic across processes and
// label-mixing, so every shard sees every label's candidates. Every
// binding of a query has the pivot's label, so a coordinator that knows
// the query and n knows which shard may answer each binding.
func Owner(u graph.NodeID, l graph.Label, n int) int {
	return int(splitmix64(uint64(u)<<32|uint64(uint32(l+1))) % uint64(n))
}

// Plan records the ownership partition: every node of the full graph is
// owned by exactly one shard. It is a pure function of the graph, so
// fleet nodes built from the same graph file agree on the plan without
// coordination.
type Plan struct {
	N     int
	Owner []int32 // Owner[u] in [0, N) for every global node u
}

// Partition assigns every node of g to one of n shards by Owner.
func Partition(g *graph.Graph, n int) (Plan, error) {
	if n < 1 {
		return Plan{}, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	owner := make([]int32, g.NumNodes())
	for u := range owner {
		owner[u] = int32(Owner(graph.NodeID(u), g.Label(graph.NodeID(u)), n))
	}
	return Plan{N: n, Owner: owner}, nil
}

// Owns returns shard index's ownership predicate.
func (p Plan) Owns(index int) func(graph.NodeID) bool {
	return func(u graph.NodeID) bool { return int(p.Owner[u]) == index }
}

// OwnedNodes returns the nodes owned by shard index, ascending.
func (p Plan) OwnedNodes(index int) []graph.NodeID {
	var out []graph.NodeID
	for u, o := range p.Owner {
		if int(o) == index {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed stateless
// hash, the same construction psi-loadgen uses for deterministic
// workload skew.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
