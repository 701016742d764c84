package server

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/psi"
	"repro/internal/signature"
)

// Reference is a model-free cross-checking evaluator: plain pessimistic
// PSI under the heuristic plan, no training, no cache, no preemption.
// The serving tests and psi-loadgen's -verify mode compare served
// bindings against it — SmartPSI's models only change how fast an
// answer arrives, never what the answer is.
//
// Construction builds the data-graph signatures once; Bindings is then
// safe for concurrent use.
type Reference struct {
	g    *graph.Graph
	sigs *signature.Signatures
}

// NewReference builds a reference evaluator over g (one signature
// construction, the same startup cost an Engine pays).
func NewReference(g *graph.Graph) (*Reference, error) {
	sigs, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	if err != nil {
		return nil, fmt.Errorf("server: reference signatures: %w", err)
	}
	return &Reference{g: g, sigs: sigs}, nil
}

// Bindings evaluates q with the pessimistic-only strategy and returns
// the pivot bindings in the wire form (ascending int64 IDs).
func (r *Reference) Bindings(q graph.Query) ([]int64, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("server: reference query: %w", err)
	}
	ev, err := psi.NewEvaluator(r.g, q, r.sigs, nil)
	if err != nil {
		return nil, fmt.Errorf("server: reference evaluator: %w", err)
	}
	res, err := psi.EvaluateAll(ev, psi.PessimisticOnly, 0, time.Time{})
	if err != nil {
		return nil, fmt.Errorf("server: reference evaluation: %w", err)
	}
	out := make([]int64, len(res.Bindings))
	for i, u := range res.Bindings {
		out[i] = int64(u)
	}
	return out, nil
}
