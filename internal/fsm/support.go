package fsm

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/signature"
)

// observeSupport publishes one support evaluation's outcome into the
// obs registry. No-op when collection is disabled.
func observeSupport(start time.Time, frequent bool, candidateEvals int64) {
	if !obs.Enabled() {
		return
	}
	obs.FSMSupportCalls.Inc()
	if frequent {
		obs.FSMSupportFrequent.Inc()
	}
	if candidateEvals > 0 {
		obs.FSMSupportEvals.Add(candidateEvals)
	}
	obs.FSMSupportSeconds.Observe(time.Since(start).Seconds())
}

// SupportEvaluator decides whether a pattern's MNI support reaches the
// threshold. MNI (minimum image based) support is the standard
// anti-monotone single-graph measure: the minimum, over pattern nodes v,
// of the number of distinct data nodes bound to v across all embeddings.
type SupportEvaluator interface {
	// IsFrequent reports whether pattern p has MNI support >= threshold,
	// along with the exact support when cheaply available (-1 when the
	// evaluator short-circuited).
	IsFrequent(p Pattern, threshold int, deadline time.Time) (frequent bool, support int, err error)
	Name() string
}

// IsoSupport evaluates MNI support the traditional way: enumerate
// embeddings with a full subgraph-isomorphism engine and collect the
// distinct bindings per pattern node. It stops enumerating as soon as
// every pattern node has reached the threshold.
type IsoSupport struct {
	g *graph.Graph
}

// NewIsoSupport returns the full-enumeration evaluator over g.
func NewIsoSupport(g *graph.Graph) *IsoSupport { return &IsoSupport{g: g} }

// Name implements SupportEvaluator.
func (s *IsoSupport) Name() string { return "subgraph-iso" }

// IsFrequent implements SupportEvaluator.
func (s *IsoSupport) IsFrequent(p Pattern, threshold int, deadline time.Time) (bool, int, error) {
	start := time.Now()
	eng, err := match.NewBacktracking(s.g, p.G)
	if err != nil {
		return false, 0, err
	}
	n := p.G.NumNodes()
	images := make([]map[graph.NodeID]struct{}, n)
	for i := range images {
		images[i] = make(map[graph.NodeID]struct{})
	}
	satisfied := 0
	err = eng.Enumerate(match.Budget{Deadline: deadline}, func(m []graph.NodeID) bool {
		for v := 0; v < n; v++ {
			set := images[v]
			if len(set) >= threshold {
				continue
			}
			if _, ok := set[m[v]]; !ok {
				set[m[v]] = struct{}{}
				if len(set) == threshold {
					satisfied++
				}
			}
		}
		return satisfied < n // stop once every node reached the threshold
	})
	if err != nil {
		return false, 0, err
	}
	support := -1
	if satisfied < n {
		support = len(images[0])
		for _, set := range images[1:] {
			if len(set) < support {
				support = len(set)
			}
		}
		observeSupport(start, false, 0)
		return false, support, nil
	}
	observeSupport(start, true, 0)
	return true, -1, nil
}

// PSISupport evaluates MNI support with pivoted subgraph isomorphism:
// one PSI pass per pattern node, stopping each pass as soon as the
// threshold is reached (or provably unreachable). Signatures for the
// data graph are shared across all patterns.
type PSISupport struct {
	g    *graph.Graph
	sigs *signature.Signatures
}

// NewPSISupport returns the PSI evaluator over g, reusing precomputed
// data signatures; each pattern's signatures are built the same way
// (signature.ForQuery).
func NewPSISupport(g *graph.Graph, sigs *signature.Signatures) (*PSISupport, error) {
	if sigs.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("fsm: signatures cover %d nodes, graph has %d", sigs.NumNodes(), g.NumNodes())
	}
	return &PSISupport{g: g, sigs: sigs}, nil
}

// Name implements SupportEvaluator.
func (s *PSISupport) Name() string { return "psi" }

// IsFrequent implements SupportEvaluator.
func (s *PSISupport) IsFrequent(p Pattern, threshold int, deadline time.Time) (bool, int, error) {
	start := time.Now()
	qSigs, err := signature.ForQuery(p.G, s.sigs)
	if err != nil {
		return false, 0, err
	}
	var evals int64
	for v := graph.NodeID(0); int(v) < p.G.NumNodes(); v++ {
		ev, err := psi.NewEvaluator(s.g, graph.Query{G: p.G, Pivot: v}, s.sigs, qSigs)
		if err != nil {
			return false, 0, err
		}
		res, err := psi.EvaluateAll(ev, psi.PessimisticOnly, threshold, deadline)
		evals += int64(res.Candidates)
		if err != nil {
			return false, 0, err
		}
		if count := len(res.Bindings); count < threshold {
			observeSupport(start, false, evals)
			return false, count, nil // MNI is the min: pattern infrequent
		}
	}
	observeSupport(start, true, evals)
	return true, -1, nil
}
