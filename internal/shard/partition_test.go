package shard

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

var shardCounts = []int{1, 2, 3, 8}

// Every node must be owned by exactly one shard, whatever the shard
// count, and the plan is Owner's: a coordinator that recomputes a
// binding's owner from its id and the pivot's label agrees with the
// nodes' plans.
func TestPartitionOwnership(t *testing.T) {
	g := graphtest.Random(200, 600, 4, 7)
	for _, n := range shardCounts {
		p, err := Partition(g, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if p.N != n || len(p.Owner) != g.NumNodes() {
			t.Fatalf("plan shape: N=%d owners=%d", p.N, len(p.Owner))
		}
		counts := make([]int, n)
		for u, o := range p.Owner {
			if o < 0 || int(o) >= n {
				t.Fatalf("node %d owner %d out of range [0,%d)", u, o, n)
			}
			if want := Owner(graph.NodeID(u), g.Label(graph.NodeID(u)), n); int(o) != want {
				t.Fatalf("n=%d: Partition gives node %d to shard %d, Owner to %d", n, u, o, want)
			}
			counts[o]++
		}
		total := 0
		for i, c := range counts {
			total += c
			owned := p.OwnedNodes(i)
			if len(owned) != c {
				t.Fatalf("shard %d: OwnedNodes len %d, counted %d", i, len(owned), c)
			}
		}
		if total != g.NumNodes() {
			t.Fatalf("n=%d: owners cover %d of %d nodes", n, total, g.NumNodes())
		}
		// The N predicates partition every label's candidate list.
		for l := 0; l < g.NumLabels(); l++ {
			for _, u := range g.NodesWithLabel(graph.Label(l)) {
				owners := 0
				for i := 0; i < n; i++ {
					if p.Owns(i)(u) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("n=%d: label %d candidate %d is owned by %d shards", n, l, u, owners)
				}
			}
		}
	}
}

// The partitioner is a pure function of the graph: two calls agree,
// which is what lets fleet nodes compute the plan independently.
func TestPartitionDeterministic(t *testing.T) {
	g := graphtest.Random(120, 300, 5, 3)
	a, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Owner {
		if a.Owner[u] != b.Owner[u] {
			t.Fatalf("node %d owner differs across runs", u)
		}
	}
}
