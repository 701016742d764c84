package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestGeneratedDatasetsMatchSeedOracle regenerates all six Table 3
// datasets at their default scale with the generator as it was before
// Builder kept per-node neighbour lists (its own adjacency for wedge
// closure, the map-based seed builder underneath) and requires
// gen.Generate to produce the identical graph.
func TestGeneratedDatasetsMatchSeedOracle(t *testing.T) {
	for _, name := range gen.Names() {
		spec, err := gen.DefaultSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seedGenerate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(got, want) {
			t.Errorf("%s: generated graph differs from the seed generator's (%d/%d nodes, %d/%d edges)",
				name, got.NumNodes(), want.NumNodes(), got.NumEdges(), want.NumEdges())
		}
	}
}

// seedGenerate is gen.Generate before the change, verbatim apart from
// building on the seed builder and calling the copies below of gen's
// unexported helpers.
func seedGenerate(spec gen.Spec) (*graph.Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.Nodes

	labels := seedSampleLabels(spec, rng)
	b := graph.NewSeedBuilder(n, int(spec.Edges))
	for i := 0; i < n; i++ {
		b.AddNode(labels[i])
	}

	slots := seedDegreeSlots(spec, rng)
	// Incremental adjacency for the triangle-closure step.
	adj := make([][]graph.NodeID, n)
	addEdge := func(u, v graph.NodeID) bool {
		if u == v || b.HasEdge(u, v) {
			return false
		}
		if spec.LabelHomophily > 0 && labels[u] != labels[v] && rng.Float64() < spec.LabelHomophily {
			return false
		}
		if err := b.AddEdge(u, v); err != nil {
			return false
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return true
	}

	misses := 0
	maxMisses := 50*int(spec.Edges) + 1000
	for int64(b.NumEdges()) < spec.Edges && misses < maxMisses {
		var ok bool
		if spec.TriangleFrac > 0 && rng.Float64() < spec.TriangleFrac && b.NumEdges() > 0 {
			// Close a wedge: pick a node with >=2 neighbors, join two of
			// its neighbors.
			u := graph.NodeID(slots[rng.Intn(len(slots))])
			if len(adj[u]) >= 2 {
				i := rng.Intn(len(adj[u]))
				j := rng.Intn(len(adj[u]))
				ok = i != j && addEdge(adj[u][i], adj[u][j])
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

// seedSampleLabels is gen's sampleLabels, verbatim but for comments.
func seedSampleLabels(spec gen.Spec, rng *rand.Rand) []graph.Label {
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
	if spec.Nodes >= spec.Labels {
		seen := make([]bool, spec.Labels)
		for _, l := range labels {
			seen[l] = true
		}
		for l, ok := range seen {
			if !ok {
				labels[rng.Intn(spec.Nodes)] = graph.Label(l)
			}
		}
	}
	return labels
}

// seedDegreeSlots is gen's degreeSlots, verbatim but for comments.
func seedDegreeSlots(spec gen.Spec, rng *rand.Rand) []int32 {
	exponent := spec.DegreeExponent
	if exponent <= 1 {
		exponent = 2.2
	}
	weights := make([]float64, spec.Nodes)
	total := 0.0
	for i := range weights {
		u := rng.Float64()
		w := math.Pow(1-u, -1/(exponent-1))
		if w > float64(spec.Nodes)/4 {
			w = float64(spec.Nodes) / 4
		}
		weights[i] = w
		total += w
	}
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
