package repro

import (
	"math/rand"
	"strings"
	"testing"
)

const apiSampleLG = `t # 0
v 0 A
v 1 B
v 2 C
e 0 1
e 1 2
e 0 2
p 0
`

func TestFacadeQuickstartFlow(t *testing.T) {
	// Parse a data graph and query, run the engine end to end.
	g, err := ParseGraph(strings.NewReader(strings.ReplaceAll(apiSampleLG, "p 0\n", "")))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(strings.NewReader(apiSampleLG))
	if err != nil {
		t.Fatal(err)
	}
	if q.Pivot != 0 || q.Size() != 3 {
		t.Fatalf("query pivot=%d size=%d", q.Pivot, q.Size())
	}
	engine, err := NewEngine(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 || res.Bindings[0] != 0 {
		t.Errorf("bindings = %v, want [0]", res.Bindings)
	}
}

func TestFacadeDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("datasets = %v", names)
	}
	g, err := GenerateDataset("cora")
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g, false)
	if s.Nodes != 2708 {
		t.Errorf("cora nodes = %d", s.Nodes)
	}
	if _, err := GenerateDataset("missing"); err == nil {
		t.Error("unknown dataset accepted")
	}
	small, err := GenerateDatasetScaled("yeast", 4)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumNodes() != 3112/4 {
		t.Errorf("scaled yeast nodes = %d", small.NumNodes())
	}
}

func TestFacadeWorkloadAndMining(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	qs, err := ExtractQueries(g, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("queries = %d", len(qs))
	}
	cfg := MineConfig{Support: 300, MaxEdges: 2, Workers: 2}
	rPsi, err := MinePSI(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rIso, err := MineIso(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rPsi.Frequent) != len(rIso.Frequent) {
		t.Errorf("miners disagree: psi %d vs iso %d", len(rPsi.Frequent), len(rIso.Frequent))
	}
}

func TestFacadeBuilderAndSave(t *testing.T) {
	b := NewBuilder(2, 1)
	u := b.AddNode(0)
	v := b.AddNode(1)
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	if _, err := NewQuery(g, 5); err == nil {
		t.Error("bad pivot accepted")
	}
	q, err := NewQuery(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Size() != 2 {
		t.Error("query size")
	}
	path := t.TempDir() + "/g.lg"
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 || g2.NumEdges() != 1 {
		t.Error("round trip failed")
	}
}

func TestDeadlineHelper(t *testing.T) {
	if !Deadline(0).IsZero() {
		t.Error("zero budget should give zero time")
	}
	if Deadline(1e9).IsZero() {
		t.Error("positive budget should give a deadline")
	}
}

func TestGenerateCustom(t *testing.T) {
	g, err := GenerateCustom(DatasetSpec{
		Name: "custom", Nodes: 500, Edges: 1500, Labels: 6,
		LabelSkew: 0.5, DegreeExponent: 2.2, TriangleFrac: 0.2,
		LabelHomophily: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 || g.NumLabels() != 6 {
		t.Errorf("custom graph shape: %d nodes %d labels", g.NumNodes(), g.NumLabels())
	}
	if _, err := GenerateCustom(DatasetSpec{Name: "bad", Nodes: -1}); err == nil {
		t.Error("bad spec accepted")
	}
}
