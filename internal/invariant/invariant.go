// Package invariant provides debug-gated deep validators for the core
// data structures of the reproduction: CSR graphs, node signatures, and
// embeddings/bindings produced by the PSI evaluators.
//
// Checking is off by default and costs one atomic load per call site.
// Enable it with the PSI_INVARIANTS environment variable (any non-empty
// value), the `psi_invariants` build tag, or Enable(true) from tests.
// With checking enabled, graph.Builder.Build runs CheckGraph on every
// graph it produces (wired through
// graph.RegisterBuildCheck), package signature validates every built
// signature set, and both PSI evaluators verify each full mapping they
// find before reporting a pivot binding as valid.
//
// Validators return errors rather than panicking so callers on error-
// returning paths can propagate them; the Must helper converts a
// violation into a panic for callers with no error path (none in
// production code — psilint enforces that).
package invariant

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/graph"
)

var enabled atomic.Bool

func init() {
	if forceEnabled || os.Getenv("PSI_INVARIANTS") != "" {
		enabled.Store(true)
	}
	graph.RegisterBuildCheck(func(g *graph.Graph) error {
		if !Enabled() {
			return nil
		}
		return CheckGraph(g)
	})
}

// Enabled reports whether deep invariant checking is on.
func Enabled() bool { return enabled.Load() }

// Enable switches deep invariant checking on or off at runtime. Tests
// use it; production code should prefer the environment variable.
func Enable(on bool) { enabled.Store(on) }

// Violation is the error type reported by every validator in this
// package, so callers can distinguish invariant failures from ordinary
// errors with errors.As.
type Violation struct {
	// Subsystem names the checked structure ("graph", "signature",
	// "embedding", "bindings", "filter").
	Subsystem string
	// Detail describes the specific violation.
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant violation [%s]: %s", v.Subsystem, v.Detail)
}

func violationf(subsystem, format string, args ...any) error {
	return &Violation{Subsystem: subsystem, Detail: fmt.Sprintf(format, args...)}
}

// CheckGraph deep-validates a CSR graph: structural consistency
// (monotone offsets, in-range adjacency, sorted runs, symmetric edges,
// label bounds — via (*graph.Graph).Validate) plus the derived state the
// evaluators rely on: per-label node index sorted and complete,
// label frequencies summing to the node count, and MaxDegree matching
// the true maximum.
func CheckGraph(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return violationf("graph", "%v", err)
	}
	n := g.NumNodes()
	var total int64
	var maxDeg int32
	for l := graph.Label(0); int(l) < g.NumLabels(); l++ {
		nodes := g.NodesWithLabel(l)
		if int32(len(nodes)) != g.LabelFrequency(l) {
			return violationf("graph", "label %d: index has %d nodes, frequency says %d", l, len(nodes), g.LabelFrequency(l))
		}
		total += int64(len(nodes))
		for i, u := range nodes {
			if g.Label(u) != l {
				return violationf("graph", "label index %d contains node %d with label %d", l, u, g.Label(u))
			}
			if i > 0 && nodes[i-1] >= u {
				return violationf("graph", "label index %d not strictly ascending at position %d", l, i)
			}
		}
	}
	if total != int64(n) {
		return violationf("graph", "label frequencies sum to %d, graph has %d nodes", total, n)
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != g.MaxDegree() {
		return violationf("graph", "MaxDegree() = %d, true maximum is %d", g.MaxDegree(), maxDeg)
	}
	return nil
}

// SignatureView is the read surface of signature.Signatures: rows of
// exact uint32 counts of 2^-Depth. Defined here so this package stays a
// leaf below package signature.
type SignatureView interface {
	NumNodes() int
	Width() int
	Depth() int
	Scaled(graph.NodeID) []uint32
}

// CheckSignatures validates a signature set against its graph: one row
// per node, width at least the label alphabet, and each node's own label
// carrying at least 2^Depth units, weight 1 (the propagation recurrences
// all seed a node with its own label at weight 1 and only ever add
// non-negative terms). Units are unsigned integers, so every weight is
// finite, non-negative and dyadic by construction.
func CheckSignatures(s SignatureView, g *graph.Graph) error {
	if s.NumNodes() != g.NumNodes() {
		return violationf("signature", "%d rows for %d nodes", s.NumNodes(), g.NumNodes())
	}
	if s.Width() < g.NumLabels() {
		return violationf("signature", "width %d < label alphabet %d", s.Width(), g.NumLabels())
	}
	if d := s.Depth(); d < 0 || d > 31 {
		return violationf("signature", "depth %d outside [0, 31]", d)
	}
	one := uint32(1) << s.Depth()
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		row := s.Scaled(u)
		if len(row) != s.Width() {
			return violationf("signature", "node %d row has %d entries, want %d", u, len(row), s.Width())
		}
		if own := row[g.Label(u)]; own < one {
			return violationf("signature", "node %d own-label weight %d units < 2^%d", u, own, s.Depth())
		}
	}
	return nil
}

// CheckEmbedding validates a full query embedding: mapping[i] is the
// data node bound to query node i. It verifies completeness, range,
// injectivity, node-label preservation, and edge (and edge-label)
// preservation.
func CheckEmbedding(g *graph.Graph, q graph.Query, mapping []graph.NodeID) error {
	qg := q.G
	if len(mapping) != qg.NumNodes() {
		return violationf("embedding", "mapping covers %d of %d query nodes", len(mapping), qg.NumNodes())
	}
	seen := make(map[graph.NodeID]graph.NodeID, len(mapping))
	for i, u := range mapping {
		if u < 0 || int(u) >= g.NumNodes() {
			return violationf("embedding", "query node %d bound to out-of-range data node %d", i, u)
		}
		if prev, dup := seen[u]; dup {
			return violationf("embedding", "not injective: query nodes %d and %d both bound to %d", prev, i, u)
		}
		seen[u] = graph.NodeID(i)
		if g.Label(u) != qg.Label(graph.NodeID(i)) {
			return violationf("embedding", "query node %d (label %d) bound to data node %d (label %d)",
				i, qg.Label(graph.NodeID(i)), u, g.Label(u))
		}
	}
	for v := graph.NodeID(0); int(v) < qg.NumNodes(); v++ {
		for i, w := range qg.Neighbors(v) {
			if v >= w {
				continue
			}
			du, dv := mapping[v], mapping[w]
			ql := qg.EdgeLabelAt(v, i)
			dl, ok := g.EdgeLabel(du, dv)
			if !ok {
				return violationf("embedding", "query edge (%d,%d) not preserved: no data edge (%d,%d)", v, w, du, dv)
			}
			if ql != graph.NoLabel && dl != ql {
				return violationf("embedding", "query edge (%d,%d) label %d mapped to data edge (%d,%d) label %d",
					v, w, ql, du, dv, dl)
			}
		}
	}
	return nil
}

// CheckBindings validates a PSI result's binding list: strictly
// ascending, in range, and every binding carrying the pivot's label.
func CheckBindings(g *graph.Graph, q graph.Query, bindings []graph.NodeID) error {
	pivotLabel := q.G.Label(q.Pivot)
	for i, u := range bindings {
		if u < 0 || int(u) >= g.NumNodes() {
			return violationf("bindings", "binding %d out of range", u)
		}
		if i > 0 && bindings[i-1] >= u {
			return violationf("bindings", "bindings not strictly ascending at position %d", i)
		}
		if g.Label(u) != pivotLabel {
			return violationf("bindings", "binding %d has label %d, pivot label is %d", u, g.Label(u), pivotLabel)
		}
	}
	return nil
}

// Must panics on a non-nil invariant error. It is the only sanctioned
// panic path for invariant failures and exists for call sites with no
// error return (none in production code today).
func Must(err error) {
	if err != nil {
		panic(err)
	}
}
