package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

func TestValidate(t *testing.T) {
	q := graphtest.Figure2Query() // v0(A)-v1(B)-v2(B)-v3(C)-v4(D), pivot v1
	good := Plan{1, 0, 2, 3, 4}
	if err := Validate(q, good); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Plan
	}{
		{"too short", Plan{1, 0}},
		{"wrong start", Plan{0, 1, 2, 3, 4}},
		{"repeat", Plan{1, 0, 0, 3, 4}},
		{"out of range", Plan{1, 0, 2, 3, 9}},
		{"negative", Plan{1, 0, 2, 3, -1}},
		{"disconnected prefix", Plan{1, 4, 0, 2, 3}}, // v4 only adjacent to v3
	}
	for _, c := range cases {
		if err := Validate(q, c.p); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Empty query: empty plan is valid.
	eq := graph.Query{G: graph.NewBuilder(0, 0).MustBuild(), Pivot: 0}
	if err := Validate(eq, Plan{}); err != nil {
		t.Errorf("empty plan: %v", err)
	}
}

func TestHeuristicIsValid(t *testing.T) {
	q := graphtest.Figure2Query()
	g := graphtest.Figure1Data()
	p := Heuristic(q, g)
	if err := Validate(q, p); err != nil {
		t.Fatalf("heuristic plan invalid: %v (plan %v)", err, p)
	}
}

func TestHeuristicPrefersRareLabels(t *testing.T) {
	// Data graph where label D (3) is rarest; the Figure 2 query's first
	// choice after pivot v1 is among {v0(A), v2(B), v3(C)} — make A rare.
	b := graph.NewBuilder(8, 0)
	b.AddNode(0) // one A
	for i := 0; i < 4; i++ {
		b.AddNode(1) // four B
	}
	for i := 0; i < 3; i++ {
		b.AddNode(2) // three C
	}
	g := b.MustBuild()
	q := graphtest.Figure2Query()
	p := Heuristic(q, g)
	if p[1] != 0 { // v0 carries the rare label A
		t.Errorf("plan %v: second node = %d, want v0 (rare label)", p, p[1])
	}
}

func TestSample(t *testing.T) {
	q := graphtest.Figure2Query()
	g := graphtest.Figure1Data()
	rng := rand.New(rand.NewSource(7))
	plans := Sample(q, g, 5, rng)
	if len(plans) == 0 {
		t.Fatal("no plans sampled")
	}
	// First plan is the heuristic default.
	h := Heuristic(q, g)
	for i := range h {
		if plans[0][i] != h[i] {
			t.Fatalf("first sampled plan %v != heuristic %v", plans[0], h)
		}
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if err := Validate(q, p); err != nil {
			t.Errorf("sampled plan %v invalid: %v", p, err)
		}
		fp := fingerprint(p)
		if seen[fp] {
			t.Errorf("duplicate sampled plan %v", p)
		}
		seen[fp] = true
	}
	if got := Sample(q, g, 0, rng); got != nil {
		t.Error("Sample(k=0) should be nil")
	}
}

func TestSampledPlansAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(6, 12, 3, seed)
		comp := graph.ConnectedComponent(g, 0)
		if len(comp) < 3 {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp)
		if err != nil {
			return false
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(sub.NumNodes())))
		if err != nil {
			return false
		}
		for _, p := range Sample(q, g, 4, rng) {
			if Validate(q, p) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompile(t *testing.T) {
	q := graphtest.Figure2Query()
	p := Plan{1, 2, 3, 4, 0}
	c, err := Compile(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Steps) != 5 {
		t.Fatalf("steps = %d", len(c.Steps))
	}
	s0 := c.Steps[0]
	if s0.QueryNode != 1 || s0.Anchor != -1 || len(s0.Checks) != 0 {
		t.Errorf("step 0 = %+v", s0)
	}
	// Step 1 binds v2, anchored at position 0 (v1).
	s1 := c.Steps[1]
	if s1.QueryNode != 2 || s1.Anchor != 0 || len(s1.Checks) != 0 {
		t.Errorf("step 1 = %+v", s1)
	}
	// Step 2 binds v3, adjacent to v1 (pos 0) and v2 (pos 1): anchor is
	// the earliest position, the other becomes a check.
	s2 := c.Steps[2]
	if s2.QueryNode != 3 || s2.Anchor != 0 || len(s2.Checks) != 1 || s2.Checks[0].Pos != 1 {
		t.Errorf("step 2 = %+v", s2)
	}
	// Step 3 binds v4, anchored at v3 (pos 2).
	s3 := c.Steps[3]
	if s3.QueryNode != 4 || s3.Anchor != 2 || len(s3.Checks) != 0 {
		t.Errorf("step 3 = %+v", s3)
	}
	if s3.Label != graphtest.LabelD {
		t.Errorf("step 3 label = %d", s3.Label)
	}
	// Invalid plans are rejected.
	if _, err := Compile(q, Plan{0, 1, 2, 3, 4}); err == nil {
		t.Error("bad plan compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	MustCompile(graphtest.Figure2Query(), Plan{0, 1, 2, 3, 4})
}

func TestCompileDegreeMetadata(t *testing.T) {
	q := graphtest.Figure1Query()
	c := MustCompile(q, Plan{0, 1, 2})
	for _, st := range c.Steps {
		if st.Degree != 2 {
			t.Errorf("step %+v degree = %d, want 2 (triangle)", st, st.Degree)
		}
	}
}
