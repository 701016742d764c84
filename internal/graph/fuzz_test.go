package graph_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// encode serializes g with the given codec writer, panicking on error
// (the seed graphs are valid by construction).
func encode(write func(io.Writer, *graph.Graph) error, g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzSeedGraphs returns small valid graphs covering the codec feature
// space: node labels, edge labels, isolated nodes, multiple components.
func fuzzSeedGraphs() []*graph.Graph {
	var out []*graph.Graph

	// Labeled triangle plus an isolated node.
	b := graph.NewBuilder(4, 3)
	n0, n1, n2 := b.AddNode(0), b.AddNode(1), b.AddNode(0)
	b.AddNode(2)
	for _, e := range [][2]graph.NodeID{{n0, n1}, {n1, n2}, {n0, n2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	out = append(out, b.MustBuild())

	// Two-component path with edge labels.
	b = graph.NewBuilder(5, 3)
	p0, p1, p2 := b.AddNode(1), b.AddNode(1), b.AddNode(0)
	q0, q1 := b.AddNode(2), b.AddNode(2)
	addEdge := func(u, v graph.NodeID, l graph.Label) {
		if err := b.AddLabeledEdge(u, v, l); err != nil {
			panic(err)
		}
	}
	addEdge(p0, p1, 0)
	addEdge(p1, p2, 1)
	addEdge(q0, q1, 0)
	out = append(out, b.MustBuild())

	// Single node, no edges.
	b = graph.NewBuilder(1, 0)
	b.AddNode(0)
	out = append(out, b.MustBuild())

	return out
}

// FuzzLGRoundTrip checks the labeled LG text codec. Labels are interned
// strings, and reparsing can renumber them (edges serialize in sorted
// order, not intern order), so the property is a serialization fixpoint:
// write(parse(write(g))) must reproduce write(g) byte for byte, with
// node/edge structure preserved.
func FuzzLGRoundTrip(f *testing.F) {
	f.Add([]byte("t # 0\nv 0 a\nv 1 b\ne 0 1 x\n"))
	f.Add([]byte("v 0 a\nv 1 a\nv 2 b\ne 2 1 x\ne 0 1\n"))
	for _, g := range fuzzSeedGraphs() {
		f.Add(encode(graph.WriteLG, g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		invariant.Enable(true)
		g, err := graph.ParseLG(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph fails validation: %v", err)
		}
		var first bytes.Buffer
		if err := graph.WriteLG(&first, g); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		g2, err := graph.ParseLG(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparsing serialized graph: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() ||
			g2.HasEdgeLabels() != g.HasEdgeLabels() {
			t.Fatalf("round trip changed structure: %d nodes/%d edges -> %d nodes/%d edges",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			if g.Degree(u) != g2.Degree(u) {
				t.Fatalf("round trip changed degree of node %d: %d -> %d", u, g.Degree(u), g2.Degree(u))
			}
		}
		var second bytes.Buffer
		if err := graph.WriteLG(&second, g2); err != nil {
			t.Fatalf("re-writing graph: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("LG serialization is not a fixpoint (%d vs %d bytes)", first.Len(), second.Len())
		}
	})
}
