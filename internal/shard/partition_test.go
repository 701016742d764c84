package shard

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

var strategies = []Strategy{LabelHash, DegreeBalanced}
var shardCounts = []int{1, 2, 3, 8}

// Every node must be owned by exactly one shard, whatever the strategy
// and shard count.
func TestPartitionOwnership(t *testing.T) {
	g := graphtest.Random(200, 600, 4, 7)
	for _, strat := range strategies {
		for _, n := range shardCounts {
			p, err := Partition(g, n, strat)
			if err != nil {
				t.Fatalf("Partition(%v, %d): %v", strat, n, err)
			}
			if p.N != n || len(p.Owner) != g.NumNodes() {
				t.Fatalf("plan shape: N=%d owners=%d", p.N, len(p.Owner))
			}
			counts := make([]int, n)
			for u, o := range p.Owner {
				if o < 0 || int(o) >= n {
					t.Fatalf("node %d owner %d out of range [0,%d)", u, o, n)
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
				t.Fatalf("%v/%d: owners cover %d of %d nodes", strat, n, total, g.NumNodes())
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
						t.Fatalf("%v/%d: label %d candidate %d is owned by %d shards", strat, n, l, u, owners)
					}
				}
			}
		}
	}
}

// The degree-balanced partitioner's greedy prefix cut guarantees every
// shard's weight (deg+1 summed) stays within one node's maximum weight
// of the ideal total/N.
func TestDegreeBalancedBounds(t *testing.T) {
	g := graphtest.Random(300, 1200, 3, 11)
	var total, maxW int64
	for u := 0; u < g.NumNodes(); u++ {
		w := int64(g.Degree(graph.NodeID(u))) + 1
		total += w
		if w > maxW {
			maxW = w
		}
	}
	for _, n := range shardCounts {
		p, err := Partition(g, n, DegreeBalanced)
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]int64, n)
		for u, o := range p.Owner {
			weights[o] += int64(g.Degree(graph.NodeID(u))) + 1
		}
		for i, w := range weights {
			// w ≤ total/n + maxW, compared exactly via cross-multiplication.
			if w*int64(n) > total+maxW*int64(n) {
				t.Fatalf("n=%d shard %d weight %d exceeds total/n + maxW = %d/%d + %d", n, i, w, total, n, maxW)
			}
		}
		// Contiguity: owners must be non-decreasing over the id range.
		for u := 1; u < len(p.Owner); u++ {
			if p.Owner[u] < p.Owner[u-1] {
				t.Fatalf("n=%d: owner sequence decreases at node %d", n, u)
			}
		}
	}
}

// Both partitioners are pure functions of the graph: two calls agree,
// which is what lets fleet nodes compute the plan independently.
func TestPartitionDeterministic(t *testing.T) {
	g := graphtest.Random(120, 300, 5, 3)
	for _, strat := range strategies {
		a, err := Partition(g, 3, strat)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(g, 3, strat)
		if err != nil {
			t.Fatal(err)
		}
		for u := range a.Owner {
			if a.Owner[u] != b.Owner[u] {
				t.Fatalf("%v: node %d owner differs across runs", strat, u)
			}
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
	}{{"label-hash", LabelHash}, {"hash", LabelHash}, {"degree", DegreeBalanced}, {"degree-balanced", DegreeBalanced}} {
		got, err := ParseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseStrategy("round-robin"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown partitioner")
	}
}
