package invariant_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/signature"
)

// triangleCSR returns the raw CSR arrays of a valid labeled triangle
// (labels 0,1,0; runs sorted by (neighbor label, id)), for building
// corrupted variants with graph.FromCSR.
func triangleCSR() (labels []graph.Label, offsets []int64, adj []graph.NodeID) {
	labels = []graph.Label{0, 1, 0}
	offsets = []int64{0, 2, 4, 6}
	// node 0: neighbors 2 (label 0), 1 (label 1)
	// node 1: neighbors 0, 2 (both label 0)
	// node 2: neighbors 0 (label 0), 1 (label 1)
	adj = []graph.NodeID{2, 1, 0, 2, 0, 1}
	return
}

func TestCheckGraphAcceptsValidCSR(t *testing.T) {
	labels, offsets, adj := triangleCSR()
	g := graph.FromCSR(labels, offsets, adj, nil, 2)
	if err := invariant.CheckGraph(g); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
}

func TestCheckGraphRejectsCorruptCSR(t *testing.T) {
	cases := []struct {
		name      string
		corrupt   func() *graph.Graph
		wantError string
	}{
		{
			name: "unsorted run",
			corrupt: func() *graph.Graph {
				labels, offsets, adj := triangleCSR()
				adj[0], adj[1] = adj[1], adj[0] // node 0's run violates (label,id) order
				return graph.FromCSR(labels, offsets, adj, nil, 2)
			},
			wantError: "not sorted",
		},
		{
			name: "asymmetric edge",
			corrupt: func() *graph.Graph {
				// Node 0 lists 1, but node 1 lists nothing.
				labels := []graph.Label{0, 0}
				offsets := []int64{0, 1, 1}
				adj := []graph.NodeID{1}
				return graph.FromCSR(labels, offsets, adj, nil, 1)
			},
			wantError: "missing its reverse",
		},
		{
			name: "self loop",
			corrupt: func() *graph.Graph {
				labels := []graph.Label{0, 0}
				offsets := []int64{0, 1, 2}
				adj := []graph.NodeID{0, 1}
				return graph.FromCSR(labels, offsets, adj, nil, 1)
			},
			wantError: "self loop",
		},
		{
			name: "label out of range",
			corrupt: func() *graph.Graph {
				labels, offsets, adj := triangleCSR()
				labels[1] = 7 // alphabet stays 2
				return graph.FromCSR(labels, offsets, adj, nil, 2)
			},
			wantError: "label",
		},
		{
			name: "negative label",
			corrupt: func() *graph.Graph {
				labels, offsets, adj := triangleCSR()
				labels[0] = -1
				return graph.FromCSR(labels, offsets, adj, nil, 2)
			},
			wantError: "label",
		},
		{
			name: "neighbor out of range",
			corrupt: func() *graph.Graph {
				labels, offsets, adj := triangleCSR()
				adj[0] = 9
				return graph.FromCSR(labels, offsets, adj, nil, 2)
			},
			wantError: "out-of-range neighbor",
		},
		{
			// Regression: each half-edge of (0,1) carried its own label,
			// so EdgeLabel(0,1) and EdgeLabel(1,0) disagreed.
			name: "asymmetric edge label",
			corrupt: func() *graph.Graph {
				return graph.FromCSR([]graph.Label{0, 0}, []int64{0, 1, 2}, []graph.NodeID{1, 0}, []graph.Label{0, 1}, 1)
			},
			wantError: "edge label",
		},
		{
			// Regression: monotone prefix overshooting len(adj) used to
			// panic Validate instead of returning an error.
			name: "offset overshoot",
			corrupt: func() *graph.Graph {
				labels := []graph.Label{0, 0, 0}
				offsets := []int64{0, 10, 10, 2}
				adj := []graph.NodeID{1, 0}
				return graph.FromCSR(labels, offsets, adj, nil, 1)
			},
			wantError: "exceeds adjacency length",
		},
		{
			name: "non-monotone offsets",
			corrupt: func() *graph.Graph {
				labels := []graph.Label{0, 0, 0}
				offsets := []int64{0, 2, 1, 2}
				adj := []graph.NodeID{1, 2}
				return graph.FromCSR(labels, offsets, adj, nil, 1)
			},
			wantError: "monotone",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckGraph(tc.corrupt())
			if err == nil {
				t.Fatal("corrupted CSR accepted")
			}
			var v *invariant.Violation
			if !errors.As(err, &v) {
				t.Fatalf("error is %T, want *invariant.Violation", err)
			}
			if !strings.Contains(err.Error(), tc.wantError) {
				t.Fatalf("error %q does not mention %q", err, tc.wantError)
			}
		})
	}
}

// fakeSigs is a SignatureView with directly controllable rows, in units
// of 2^-depth.
type fakeSigs struct {
	width, depth int
	rows         [][]uint32
}

func (f *fakeSigs) NumNodes() int                  { return len(f.rows) }
func (f *fakeSigs) Width() int                     { return f.width }
func (f *fakeSigs) Depth() int                     { return f.depth }
func (f *fakeSigs) Scaled(u graph.NodeID) []uint32 { return f.rows[u] }

func sigFixtureGraph() *graph.Graph {
	b := graph.NewBuilder(3, 2)
	n0, n1, n2 := b.AddNode(0), b.AddNode(1), b.AddNode(0)
	if err := b.AddEdge(n0, n1); err != nil {
		panic(err)
	}
	if err := b.AddEdge(n1, n2); err != nil {
		panic(err)
	}
	return b.MustBuild()
}

func TestCheckSignatures(t *testing.T) {
	g := sigFixtureGraph()

	real := signature.MustBuild(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	if err := invariant.CheckSignatures(real, g); err != nil {
		t.Fatalf("real signatures rejected: %v", err)
	}

	// Weights {1, 2}, {2, 1.5}, {1, 0} at depth 2.
	ok := &fakeSigs{width: 2, depth: 2, rows: [][]uint32{{4, 8}, {8, 6}, {4, 0}}}
	if err := invariant.CheckSignatures(ok, g); err != nil {
		t.Fatalf("valid fake signatures rejected: %v", err)
	}

	bad := []struct {
		name string
		s    *fakeSigs
		want string
	}{
		{"row count mismatch", &fakeSigs{width: 2, rows: [][]uint32{{1, 0}}}, "rows"},
		{"narrow width", &fakeSigs{width: 1, rows: [][]uint32{{1}, {1}, {1}}}, "width"},
		{"ragged row", &fakeSigs{width: 2, rows: [][]uint32{{1, 0}, {2, 1}, {1}}}, "entries"},
		{"depth out of range", &fakeSigs{width: 2, depth: 32, rows: [][]uint32{{1, 0}, {0, 1}, {1, 0}}}, "depth"},
		// Weight 0.75 at depth 2: below the node's own weight 1.
		{"own label below one", &fakeSigs{width: 2, depth: 2, rows: [][]uint32{{3, 4}, {0, 4}, {4, 0}}}, "own-label"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckSignatures(tc.s, g)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func embFixture() (*graph.Graph, graph.Query) {
	b := graph.NewBuilder(4, 4)
	n0, n1 := b.AddNode(0), b.AddNode(1)
	n2, n3 := b.AddNode(0), b.AddNode(1)
	for _, e := range [][2]graph.NodeID{{n0, n1}, {n1, n2}, {n2, n3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	g := b.MustBuild()

	qb := graph.NewBuilder(2, 1)
	q0, q1 := qb.AddNode(0), qb.AddNode(1)
	if err := qb.AddEdge(q0, q1); err != nil {
		panic(err)
	}
	q, err := graph.NewQuery(qb.MustBuild(), q0)
	if err != nil {
		panic(err)
	}
	return g, q
}

func TestCheckEmbedding(t *testing.T) {
	g, q := embFixture()
	if err := invariant.CheckEmbedding(g, q, []graph.NodeID{0, 1}); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}
	if err := invariant.CheckEmbedding(g, q, []graph.NodeID{2, 3}); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}
	bad := []struct {
		name    string
		mapping []graph.NodeID
		want    string
	}{
		{"incomplete", []graph.NodeID{0}, "covers"},
		{"out of range", []graph.NodeID{0, 9}, "out-of-range"},
		{"not injective", []graph.NodeID{0, 0}, "injective"},
		{"label mismatch", []graph.NodeID{1, 0}, "label"},
		{"edge not preserved", []graph.NodeID{0, 3}, "not preserved"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckEmbedding(g, q, tc.mapping)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckBindings(t *testing.T) {
	g, q := embFixture()
	if err := invariant.CheckBindings(g, q, []graph.NodeID{0, 2}); err != nil {
		t.Fatalf("valid bindings rejected: %v", err)
	}
	if err := invariant.CheckBindings(g, q, nil); err != nil {
		t.Fatalf("empty bindings rejected: %v", err)
	}
	bad := []struct {
		name     string
		bindings []graph.NodeID
		want     string
	}{
		{"descending", []graph.NodeID{2, 0}, "ascending"},
		{"duplicate", []graph.NodeID{0, 0}, "ascending"},
		{"out of range", []graph.NodeID{42}, "out of range"},
		{"wrong label", []graph.NodeID{1}, "label"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckBindings(g, q, tc.bindings)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestEnableToggleGatesBuildChecks(t *testing.T) {
	was := invariant.Enabled()
	defer invariant.Enable(was)

	invariant.Enable(true)
	if !invariant.Enabled() {
		t.Fatal("Enable(true) did not stick")
	}
	// With checking enabled, Builder.Build runs CheckGraph via the
	// registered hook; a clean build must still succeed.
	b := graph.NewBuilder(2, 1)
	n0, n1 := b.AddNode(0), b.AddNode(0)
	if err := b.AddEdge(n0, n1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatalf("clean build failed with invariants on: %v", err)
	}
	invariant.Enable(false)
	if invariant.Enabled() {
		t.Fatal("Enable(false) did not stick")
	}
}

func TestMust(t *testing.T) {
	invariant.Must(nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("Must(err) did not panic")
		}
	}()
	invariant.Must(errors.New("boom"))
}
