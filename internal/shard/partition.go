// Package shard evaluates pivoted-subgraph-isomorphism queries by
// scatter-gather over pivot candidates, the paper's distributed setting
// (§5.5): every shard holds the whole data graph and owns a share of its
// nodes, evaluates a query only on the candidates it owns, and a gather
// unions the answers. A verdict computed on the full graph is the single
// engine's by construction, so the union equals the single-engine answer
// exactly (see ARCHITECTURE.md, "Sharded serving") — the equivalence is
// property-tested in cluster_test.go.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy selects how nodes are assigned to shards.
type Strategy int

const (
	// LabelHash owns node u on shard hash(u, label(u)) mod N: stateless,
	// deterministic across processes, and label-mixing so every shard
	// sees every label's candidates.
	LabelHash Strategy = iota
	// DegreeBalanced cuts the node-id range into N contiguous runs with
	// near-equal total weight deg(u)+1, so shards carry similar
	// adjacency volume even on skewed graphs.
	DegreeBalanced
)

// String returns the flag spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case LabelHash:
		return "label-hash"
	case DegreeBalanced:
		return "degree"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy parses the -partitioner flag spellings.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "label-hash", "labelhash", "hash":
		return LabelHash, nil
	case "degree", "degree-balanced":
		return DegreeBalanced, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q (want label-hash or degree)", s)
	}
}

// Plan records the ownership partition: every node of the full graph is
// owned by exactly one shard. Both partitioners are deterministic
// functions of the graph, so fleet nodes built from the same graph file
// agree on the plan without coordination.
type Plan struct {
	N     int
	Owner []int32 // Owner[u] in [0, N) for every global node u
}

// Partition assigns every node of g to one of n shards.
func Partition(g *graph.Graph, n int, strat Strategy) (Plan, error) {
	if n < 1 {
		return Plan{}, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	owner := make([]int32, g.NumNodes())
	switch strat {
	case LabelHash:
		for u := 0; u < g.NumNodes(); u++ {
			h := splitmix64(uint64(u)<<32 | uint64(uint32(g.Label(graph.NodeID(u))+1)))
			owner[u] = int32(h % uint64(n))
		}
	case DegreeBalanced:
		// Greedy prefix cut on weight deg(u)+1: advance to the next
		// shard once the cumulative weight crosses the next boundary
		// (i+1)·total/n. Each shard's weight lands within one node's
		// weight of the ideal, so no shard exceeds total/n + maxWeight.
		var total int64
		for u := 0; u < g.NumNodes(); u++ {
			total += int64(g.Degree(graph.NodeID(u))) + 1
		}
		var cum int64
		idx := int32(0)
		for u := 0; u < g.NumNodes(); u++ {
			owner[u] = idx
			cum += int64(g.Degree(graph.NodeID(u))) + 1
			for int(idx) < n-1 && cum*int64(n) >= total*int64(idx+1) {
				idx++
			}
		}
	default:
		return Plan{}, fmt.Errorf("shard: unknown strategy %v", strat)
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
