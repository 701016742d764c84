package dyngraph

import (
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/psi"
	"repro/internal/signature"
)

// evaluateAllPessimistic runs a PSI query over every pivot-labeled
// candidate with the pessimistic method and returns sorted bindings.
func evaluateAllPessimistic(t testing.TB, g *graph.Graph, q graph.Query, dataSigs *signature.Signatures) []graph.NodeID {
	t.Helper()
	ev, err := psi.NewEvaluator(g, q, dataSigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := psi.EvaluateAll(ev, psi.PessimisticOnly, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	out := append([]graph.NodeID(nil), res.Bindings...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
