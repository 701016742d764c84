package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at AddEdge time; the zero
// Builder is ready to use. Node-level mistakes (negative labels) are
// deferred and surface as an error from Build, so no Builder method
// panics.
type Builder struct {
	labels     []Label
	src, dst   []NodeID
	edgeLabels []Label
	hasELabels bool
	nodeTable  *LabelTable
	edgeTable  *LabelTable
	seen       map[edgeKey]struct{}
	err        error // first deferred construction error
}

type edgeKey struct{ a, b NodeID }

func normKey(u, v NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// NewBuilder returns a Builder expecting roughly the given node and edge
// counts (hints only; the builder grows as needed).
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		labels: make([]Label, 0, nodeHint),
		src:    make([]NodeID, 0, edgeHint),
		dst:    make([]NodeID, 0, edgeHint),
		seen:   make(map[edgeKey]struct{}, edgeHint),
	}
}

// SetLabelTables attaches name tables carried through to the built Graph.
func (b *Builder) SetLabelTables(node, edge *LabelTable) {
	b.nodeTable, b.edgeTable = node, edge
}

// AddNode appends a node with the given label and returns its id.
// A negative label is recorded as a deferred error reported by Build.
func (b *Builder) AddNode(label Label) NodeID {
	if label < 0 && b.err == nil {
		b.err = fmt.Errorf("graph: negative node label %d", label)
	}
	b.labels = append(b.labels, label)
	return NodeID(len(b.labels) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.src) }

// HasEdge reports whether the undirected edge (u, v) was already added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	_, ok := b.seen[normKey(u, v)]
	return ok
}

// AddEdge adds the undirected unlabeled edge (u, v). It returns an error
// for self-loops, unknown endpoints, or duplicate edges.
func (b *Builder) AddEdge(u, v NodeID) error {
	return b.AddLabeledEdge(u, v, NoLabel)
}

// AddLabeledEdge adds the undirected edge (u, v) carrying label l
// (NoLabel for none). Mixing labeled and unlabeled edges is allowed; the
// built graph has edge labels if any edge carried one.
func (b *Builder) AddLabeledEdge(u, v NodeID, l Label) error {
	n := NodeID(len(b.labels))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	k := normKey(u, v)
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
func (b *Builder) Err() error { return b.err }

// MustBuild is Build for programmatically constructed graphs known to be
// valid; it panics on error. Tests and fixtures use it.
func (b *Builder) MustBuild() *Graph {
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
func (b *Builder) Build() (*Graph, error) {
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
			sort.Sort(&pairedRun{ids: run, el: el, labels: g.labels})
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

// pairedRun sorts a neighbor run and its aligned edge labels together.
type pairedRun struct {
	ids    []NodeID
	el     []Label
	labels []Label
}

func (p *pairedRun) Len() int { return len(p.ids) }
func (p *pairedRun) Less(i, j int) bool {
	li, lj := p.labels[p.ids[i]], p.labels[p.ids[j]]
	if li != lj {
		return li < lj
	}
	return p.ids[i] < p.ids[j]
}
func (p *pairedRun) Swap(i, j int) {
	p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
	p.el[i], p.el[j] = p.el[j], p.el[i]
}
