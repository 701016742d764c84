// Package plan models query-evaluation search orders for PSI queries.
//
// A plan is a permutation of the query's nodes beginning with the pivot
// such that every prefix is connected; the evaluators bind query nodes to
// data nodes in plan order, so the connected-prefix property guarantees
// every new binding is anchored to an already-bound neighbor.
//
// The package provides the selectivity-based heuristic planner used by
// the two-threaded baseline and recovery path (Section 4.3), full and
// sampled enumeration of valid plans (the classes of model β,
// Section 4.2.2), and plan compilation into the adjacency-check program
// the evaluators execute.
package plan

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Plan is a query-node visit order. Plan[0] is always the query pivot.
type Plan []graph.NodeID

// Validate checks that p is a permutation of q's nodes, starts at the
// pivot, and keeps every prefix connected.
func Validate(q graph.Query, p Plan) error {
	n := q.G.NumNodes()
	if len(p) != n {
		return fmt.Errorf("plan: length %d, want %d", len(p), n)
	}
	if n == 0 {
		return nil
	}
	if p[0] != q.Pivot {
		return fmt.Errorf("plan: starts at %d, want pivot %d", p[0], q.Pivot)
	}
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("plan: node %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("plan: node %d repeated", v)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		connected := false
		for _, w := range q.G.Neighbors(v) {
			if seen[w] && w != v {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("plan: node %d at position %d not adjacent to any earlier node", v, i)
		}
	}
	return nil
}

// Heuristic returns the selectivity-based plan for q against data graph
// g: starting from the pivot, it greedily appends the connected query
// node whose label is rarest in g, breaking ties by higher query degree
// (more attached constraints prune earlier) and then by node id. This is
// the plan used when no learned plan is available.
func Heuristic(q graph.Query, g *graph.Graph) Plan {
	n := q.G.NumNodes()
	p := make(Plan, 0, n)
	if n == 0 {
		return p
	}
	inPlan := make([]bool, n)
	frontier := make([]bool, n)
	p = append(p, q.Pivot)
	inPlan[q.Pivot] = true
	for _, w := range q.G.Neighbors(q.Pivot) {
		frontier[w] = true
	}
	for len(p) < n {
		best := graph.NodeID(-1)
		var bestFreq int32
		var bestDeg int32
		for v := graph.NodeID(0); int(v) < n; v++ {
			if !frontier[v] || inPlan[v] {
				continue
			}
			freq := g.LabelFrequency(q.G.Label(v))
			deg := q.G.Degree(v)
			if best < 0 || freq < bestFreq || (freq == bestFreq && (deg > bestDeg || (deg == bestDeg && v < best))) {
				best, bestFreq, bestDeg = v, freq, deg
			}
		}
		if best < 0 {
			// Disconnected query; fall back to any remaining node so the
			// plan is still a permutation (Validate will flag it).
			for v := graph.NodeID(0); int(v) < n; v++ {
				if !inPlan[v] {
					best = v
					break
				}
			}
		}
		p = append(p, best)
		inPlan[best] = true
		frontier[best] = false
		for _, w := range q.G.Neighbors(best) {
			if !inPlan[w] {
				frontier[w] = true
			}
		}
	}
	return p
}

// Sample returns up to k distinct valid plans drawn uniformly-ish by
// random greedy extension. The heuristic plan for g is always included
// first so the model β class set contains the safe default.
func Sample(q graph.Query, g *graph.Graph, k int, rng *rand.Rand) []Plan {
	if k <= 0 {
		return nil
	}
	out := []Plan{Heuristic(q, g)}
	seen := map[string]bool{fingerprint(out[0]): true}
	n := q.G.NumNodes()
	if n == 0 {
		return out
	}
	attempts := 0
	for len(out) < k && attempts < 20*k {
		attempts++
		p := randomPlan(q, rng)
		fp := fingerprint(p)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	return out
}

func randomPlan(q graph.Query, rng *rand.Rand) Plan {
	n := q.G.NumNodes()
	p := make(Plan, 1, n)
	p[0] = q.Pivot
	inPlan := make([]bool, n)
	inPlan[q.Pivot] = true
	var frontier []graph.NodeID
	push := func(u graph.NodeID) {
		for _, w := range q.G.Neighbors(u) {
			if !inPlan[w] {
				dup := false
				for _, f := range frontier {
					if f == w {
						dup = true
						break
					}
				}
				if !dup {
					frontier = append(frontier, w)
				}
			}
		}
	}
	push(q.Pivot)
	for len(p) < n && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		p = append(p, v)
		inPlan[v] = true
		push(v)
	}
	return p
}

func fingerprint(p Plan) string {
	b := make([]byte, 0, len(p)*2)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8))
	}
	return string(b)
}
