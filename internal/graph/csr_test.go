package graph

import "testing"

func TestEqual(t *testing.T) {
	build := func(mutate int) *Graph {
		b := NewBuilder(3, 2)
		l := Label(1)
		if mutate == 1 {
			l = 2 // different node label
		}
		n0, n1, n2 := b.AddNode(0), b.AddNode(l), b.AddNode(0)
		el := Label(5)
		if mutate == 2 {
			el = 6 // different edge label
		}
		if err := b.AddLabeledEdge(n0, n1, el); err != nil {
			t.Fatal(err)
		}
		second := [2]NodeID{n1, n2}
		if mutate == 3 {
			second = [2]NodeID{n0, n2} // different topology
		}
		if err := b.AddEdge(second[0], second[1]); err != nil {
			t.Fatal(err)
		}
		if mutate == 4 {
			b.AddNode(0) // extra node
		}
		return b.MustBuild()
	}
	base := build(0)
	if !Equal(base, build(0)) {
		t.Error("identical graphs not Equal")
	}
	for mutate := 1; mutate <= 4; mutate++ {
		if Equal(base, build(mutate)) {
			t.Errorf("mutation %d considered Equal", mutate)
		}
	}
}

func TestFromCSRDerivedState(t *testing.T) {
	labels := []Label{0, 1, 0}
	offsets := []int64{0, 2, 4, 6}
	adj := []NodeID{2, 1, 0, 2, 0, 1}
	g := FromCSR(labels, offsets, adj, nil, 2)
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.NumLabels() != 2 {
		t.Fatalf("counts wrong: %d nodes %d edges %d labels", g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if g.LabelFrequency(0) != 2 || g.LabelFrequency(1) != 1 {
		t.Errorf("label frequencies wrong: %d, %d", g.LabelFrequency(0), g.LabelFrequency(1))
	}
	if n := g.NodesWithLabel(0); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Errorf("NodesWithLabel(0) = %v", n)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid CSR fails validation: %v", err)
	}
}
