package gen

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/signature"
)

// allocated returns the bytes f allocates (the process-wide TotalAlloc
// delta; no other test in this package runs concurrently).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// csrBytes is what a built graph without edge labels keeps: offsets,
// both half-edges of every edge, node labels and the per-label index.
func csrBytes(g *graph.Graph) uint64 {
	n, e := uint64(g.NumNodes()), uint64(g.NumEdges())
	return 8*(n+1) + 4*2*e + 4*n + 4*n
}

// TestStartupAllocationBudget guards the startup path of a served data
// graph: generating it and building its signatures. The bounds sit
// between the map-based builder with its float64 signatures and the
// current code, measured on YouTube at 1/500 (10,203 nodes, 85,092
// edges, 25 labels):
//   - gen.Generate allocated 9.6× the final CSR with a src/dst edge
//     list, a per-edge hash set and the generator's own adjacency; it
//     allocates 4.1× with per-node neighbour lists read in place;
//   - signature.Build (matrix, depth 2) allocated 4.0× the N×W×4 bytes of
//     a uint32 table as two float64 buffers; it allocates 2.2× as two
//     uint32 buffers plus the row totals of the overflow check.
func TestStartupAllocationBudget(t *testing.T) {
	spec, err := ScaledSpec("youtube", 500)
	if err != nil {
		t.Fatal(err)
	}
	var g *graph.Graph
	genBytes := allocated(func() { g = MustGenerate(spec) })
	genRatio := float64(genBytes) / float64(csrBytes(g))

	sigBytes := allocated(func() {
		signature.MustBuild(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	})
	table := uint64(g.NumNodes()) * uint64(g.NumLabels()) * 4
	sigRatio := float64(sigBytes) / float64(table)

	t.Logf("gen.Generate: %d B allocated for a %d B CSR (%.2f×); signature.Build: %d B for a %d B table (%.2f×)",
		genBytes, csrBytes(g), genRatio, sigBytes, table, sigRatio)
	const maxGenRatio, maxSigRatio = 6.0, 3.0
	if genRatio > maxGenRatio {
		t.Errorf("gen.Generate allocated %.2f× its CSR, budget %.1f×", genRatio, maxGenRatio)
	}
	if sigRatio > maxSigRatio {
		t.Errorf("signature.Build allocated %.2f× its uint32 table, budget %.1f×", sigRatio, maxSigRatio)
	}
}
