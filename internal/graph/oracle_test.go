package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The oracle for Builder: the map-based builder it replaced, kept
// verbatim apart from identifier renames. It held src/dst/edge-label
// lists plus a per-edge hash set until Build. TestBuilderMatchesSeedOracle
// drives both with the same random operation sequences, and the
// external TestGeneratedDatasetsMatchSeedOracle rebuilds the six
// generated datasets on it.
//
// Mutants this oracle was checked to kill, each applied alone to
// builder.go:
//   - AddLabeledEdge drops the reverse neighbour (nbrs[v]);
//   - AddLabeledEdge drops the reverse edge label (elabels[v]);
//   - the NoLabel back-fill is skipped (lists start empty);
//   - the back-fill writes label 0 instead of NoLabel;
//   - AddNode stops extending elabels once labels exist;
//   - the duplicate check is removed;
//   - HasEdge loses its range check (it panics on unknown nodes);
//   - NumEdges is not counted;
//   - Build copies no edge labels.
// HasEdge scanning one fixed endpoint instead of the shorter one is an
// equivalent mutant: both lists hold every edge, so only speed differs.

// seedBuilder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at AddEdge time; the zero
// seedBuilder is ready to use. Node-level mistakes (negative labels) are
// deferred and surface as an error from Build, so no seedBuilder method
// panics.
type seedBuilder struct {
	labels     []Label
	src, dst   []NodeID
	edgeLabels []Label
	hasELabels bool
	nodeTable  *LabelTable
	edgeTable  *LabelTable
	seen       map[seedEdgeKey]struct{}
	err        error // first deferred construction error
}

type seedEdgeKey struct{ a, b NodeID }

func seedNormKey(u, v NodeID) seedEdgeKey {
	if u > v {
		u, v = v, u
	}
	return seedEdgeKey{u, v}
}

// newSeedBuilder returns a seedBuilder expecting roughly the given node and edge
// counts (hints only; the builder grows as needed).
func newSeedBuilder(nodeHint, edgeHint int) *seedBuilder {
	return &seedBuilder{
		labels: make([]Label, 0, nodeHint),
		src:    make([]NodeID, 0, edgeHint),
		dst:    make([]NodeID, 0, edgeHint),
		seen:   make(map[seedEdgeKey]struct{}, edgeHint),
	}
}

// SetLabelTables attaches name tables carried through to the built Graph.
func (b *seedBuilder) SetLabelTables(node, edge *LabelTable) {
	b.nodeTable, b.edgeTable = node, edge
}

// AddNode appends a node with the given label and returns its id.
// A negative label is recorded as a deferred error reported by Build.
func (b *seedBuilder) AddNode(label Label) NodeID {
	if label < 0 && b.err == nil {
		b.err = fmt.Errorf("graph: negative node label %d", label)
	}
	b.labels = append(b.labels, label)
	return NodeID(len(b.labels) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *seedBuilder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of edges added so far.
func (b *seedBuilder) NumEdges() int { return len(b.src) }

// HasEdge reports whether the undirected edge (u, v) was already added.
func (b *seedBuilder) HasEdge(u, v NodeID) bool {
	_, ok := b.seen[seedNormKey(u, v)]
	return ok
}

// AddEdge adds the undirected unlabeled edge (u, v). It returns an error
// for self-loops, unknown endpoints, or duplicate edges.
func (b *seedBuilder) AddEdge(u, v NodeID) error {
	return b.AddLabeledEdge(u, v, NoLabel)
}

// AddLabeledEdge adds the undirected edge (u, v) carrying label l
// (NoLabel for none). Mixing labeled and unlabeled edges is allowed; the
// built graph has edge labels if any edge carried one.
func (b *seedBuilder) AddLabeledEdge(u, v NodeID, l Label) error {
	n := NodeID(len(b.labels))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	k := seedNormKey(u, v)
	if _, dup := b.seen[k]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[k] = struct{}{}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.edgeLabels = append(b.edgeLabels, l)
	if l != NoLabel {
		b.hasELabels = true
	}
	return nil
}

// Err returns the first deferred construction error (nil when the
// builder state is sound).
func (b *seedBuilder) Err() error { return b.err }

// MustBuild is Build for programmatically constructed graphs known to be
// valid; it panics on error. Tests and fixtures use it.
func (b *seedBuilder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Build finalizes the builder into an immutable Graph. The builder may be
// reused afterwards only by starting over (its state is consumed). It
// returns any deferred construction error, and — when invariant checking
// is enabled (see internal/invariant) — the first deep-validation
// failure of the built graph.
func (b *seedBuilder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.labels)
	g := &Graph{
		labels:     b.labels,
		nodeLabels: b.nodeTable,
		edgeTable:  b.edgeTable,
		numEdges:   int64(len(b.src)),
	}

	// Degree counting pass.
	deg := make([]int64, n+1)
	for i := range b.src {
		deg[b.src[i]+1]++
		deg[b.dst[i]+1]++
	}
	g.offsets = make([]int64, n+1)
	for i := 0; i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + deg[i+1]
		if d := int32(deg[i+1]); d > g.maxDegree {
			g.maxDegree = d
		}
	}

	g.adj = make([]NodeID, g.offsets[n])
	if b.hasELabels {
		g.edgeLabels = make([]Label, g.offsets[n])
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	place := func(u, v NodeID, l Label) {
		p := cursor[u]
		g.adj[p] = v
		if g.edgeLabels != nil {
			g.edgeLabels[p] = l
		}
		cursor[u] = p + 1
	}
	for i := range b.src {
		place(b.src[i], b.dst[i], b.edgeLabels[i])
		place(b.dst[i], b.src[i], b.edgeLabels[i])
	}

	// Sort each neighbor run by (label, id), keeping edge labels aligned.
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		run := g.adj[lo:hi]
		if g.edgeLabels == nil {
			sort.Slice(run, func(i, j int) bool {
				li, lj := g.labels[run[i]], g.labels[run[j]]
				if li != lj {
					return li < lj
				}
				return run[i] < run[j]
			})
		} else {
			el := g.edgeLabels[lo:hi]
			sort.Sort(&seedPairedRun{ids: run, el: el, labels: g.labels})
		}
	}

	// Label statistics and per-label node index.
	maxLabel := Label(-1)
	for _, l := range b.labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	g.labelCount = make([]int32, maxLabel+1)
	for _, l := range b.labels {
		g.labelCount[l]++
	}
	g.labelIndex = make([][]NodeID, maxLabel+1)
	for l := range g.labelIndex {
		if c := g.labelCount[l]; c > 0 {
			g.labelIndex[l] = make([]NodeID, 0, c)
		}
	}
	for u, l := range b.labels {
		g.labelIndex[l] = append(g.labelIndex[l], NodeID(u))
	}

	b.src, b.dst, b.edgeLabels, b.seen = nil, nil, nil, nil
	if err := runBuildChecks(g); err != nil {
		return nil, err
	}
	return g, nil
}

// seedPairedRun sorts a neighbor run and its aligned edge labels together.
type seedPairedRun struct {
	ids    []NodeID
	el     []Label
	labels []Label
}

func (p *seedPairedRun) Len() int { return len(p.ids) }
func (p *seedPairedRun) Less(i, j int) bool {
	li, lj := p.labels[p.ids[i]], p.labels[p.ids[j]]
	if li != lj {
		return li < lj
	}
	return p.ids[i] < p.ids[j]
}
func (p *seedPairedRun) Swap(i, j int) {
	p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
	p.el[i], p.el[j] = p.el[j], p.el[i]
}

// NewSeedBuilder exposes the oracle to the package's external tests.
func NewSeedBuilder(nodeHint, edgeHint int) *SeedBuilder { return newSeedBuilder(nodeHint, edgeHint) }

// SeedBuilder is the oracle builder's exported name for external tests.
type SeedBuilder = seedBuilder

// builderOps is the surface both builders share.
type builderOps interface {
	AddNode(Label) NodeID
	NumNodes() int
	NumEdges() int
	HasEdge(u, v NodeID) bool
	AddEdge(u, v NodeID) error
	AddLabeledEdge(u, v NodeID, l Label) error
	Err() error
	Build() (*Graph, error)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBuilderMatchesSeedOracle runs random operation sequences against
// Builder and the seed builder: every call must return the same id,
// answer or error text, and Build the same graph (graph.Equal) or the
// same error. Sequences mix labeled and unlabeled edges (so the NoLabel
// back-fill runs at every point of a build), repeat edges in both
// directions, and include self-loops, unknown endpoints and negative
// node and edge labels.
func TestBuilderMatchesSeedOracle(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hint := rng.Intn(5)
		nb, sb := builderOps(NewBuilder(hint, 2*hint)), builderOps(newSeedBuilder(hint, 2*hint))
		labelMode := rng.Intn(3) // 0: no edge labels, 1: all labeled, 2: mixed
		var added [][2]NodeID
		ops := 1 + rng.Intn(80)
		for op := 0; op < ops; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			n := nb.NumNodes()
			if n == 0 || rng.Intn(6) == 0 {
				l := Label(rng.Intn(4))
				if rng.Intn(50) == 0 {
					l = -1 - Label(rng.Intn(3))
				}
				if a, b := nb.AddNode(l), sb.AddNode(l); a != b {
					t.Fatalf("%s: AddNode(%d) = %d, oracle %d", where, l, a, b)
				}
				continue
			}
			endpoint := func() NodeID {
				switch rng.Intn(20) {
				case 0:
					return -1
				case 1:
					return NodeID(n + rng.Intn(3))
				default:
					return NodeID(rng.Intn(n))
				}
			}
			u, v := endpoint(), endpoint()
			switch r := rng.Intn(10); {
			case r == 0:
				v = u
			case r <= 2 && len(added) > 0:
				e := added[rng.Intn(len(added))]
				u, v = e[0], e[1]
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
			}
			if a, b := nb.HasEdge(u, v), sb.HasEdge(u, v); a != b {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, oracle %v", where, u, v, a, b)
			}
			l := NoLabel
			if labelMode == 1 || (labelMode == 2 && rng.Intn(3) == 0) {
				l = Label(rng.Intn(3))
				if rng.Intn(30) == 0 {
					l = -2
				}
			}
			var ea, eb error
			if l == NoLabel && rng.Intn(2) == 0 {
				ea, eb = nb.AddEdge(u, v), sb.AddEdge(u, v)
			} else {
				ea, eb = nb.AddLabeledEdge(u, v, l), sb.AddLabeledEdge(u, v, l)
			}
			if errText(ea) != errText(eb) {
				t.Fatalf("%s: AddLabeledEdge(%d,%d,%d) = %v, oracle %v", where, u, v, l, ea, eb)
			}
			if ea == nil {
				added = append(added, [2]NodeID{u, v})
			}
			if nb.NumEdges() != sb.NumEdges() || nb.NumNodes() != sb.NumNodes() || errText(nb.Err()) != errText(sb.Err()) {
				t.Fatalf("%s: counts (%d,%d,%v), oracle (%d,%d,%v)", where,
					nb.NumNodes(), nb.NumEdges(), nb.Err(), sb.NumNodes(), sb.NumEdges(), sb.Err())
			}
		}
		ga, ea := nb.Build()
		gb, eb := sb.Build()
		if errText(ea) != errText(eb) {
			t.Fatalf("seed %d: Build error %v, oracle %v", seed, ea, eb)
		}
		if ea != nil {
			continue
		}
		if !Equal(ga, gb) || ga.NumLabels() != gb.NumLabels() || ga.MaxDegree() != gb.MaxDegree() {
			t.Fatalf("seed %d: built graph differs from the oracle's", seed)
		}
		if err := ga.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
