package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at AddEdge time; the zero
// Builder is ready to use. Node-level mistakes (negative labels) are
// deferred and surface as an error from Build, so no Builder method
// panics.
//
// Each edge is kept once per endpoint, in that endpoint's neighbour list,
// which is also what Build copies into the CSR: there is no separate edge
// list and no edge set.
type Builder struct {
	labels []Label
	nbrs   [][]NodeID // nbrs[u]: u's neighbours in insertion order
	// elabels[u] is aligned with nbrs[u]. It stays nil until some edge
	// carries a label; then every list is back-filled with NoLabel.
	elabels   [][]Label
	numEdges  int
	nodeTable *LabelTable
	edgeTable *LabelTable
	err       error // first deferred construction error
}

// NewBuilder returns a Builder expecting roughly the given node and edge
// counts (hints only; the builder grows as needed).
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		labels: make([]Label, 0, nodeHint),
		nbrs:   make([][]NodeID, 0, nodeHint),
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
	b.nbrs = append(b.nbrs, nil)
	if b.elabels != nil {
		b.elabels = append(b.elabels, nil)
	}
	return NodeID(len(b.labels) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return b.numEdges }

// Neighbors returns the neighbours of u added so far, in insertion order
// (nil for an unknown node). The caller must not modify it, and it is
// valid only until the next AddEdge.
func (b *Builder) Neighbors(u NodeID) []NodeID {
	if u < 0 || int(u) >= len(b.nbrs) {
		return nil
	}
	return b.nbrs[u]
}

// HasEdge reports whether the undirected edge (u, v) was already added.
// It scans the shorter of the two endpoints' lists.
func (b *Builder) HasEdge(u, v NodeID) bool {
	n := NodeID(len(b.nbrs))
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	if len(b.nbrs[u]) > len(b.nbrs[v]) {
		u, v = v, u
	}
	return slices.Contains(b.nbrs[u], v)
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
	if b.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	if l != NoLabel && b.elabels == nil {
		b.elabels = make([][]Label, len(b.nbrs))
		for x, run := range b.nbrs {
			el := make([]Label, len(run))
			for i := range el {
				el[i] = NoLabel
			}
			b.elabels[x] = el
		}
	}
	b.nbrs[u] = append(b.nbrs[u], v)
	b.nbrs[v] = append(b.nbrs[v], u)
	if b.elabels != nil {
		b.elabels[u] = append(b.elabels[u], l)
		b.elabels[v] = append(b.elabels[v], l)
	}
	b.numEdges++
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
		numEdges:   int64(b.numEdges),
	}

	// Copy each neighbour list into its CSR run, releasing the list as it
	// goes, and sort the run by (label, id) with edge labels aligned.
	g.offsets = make([]int64, n+1)
	for u, run := range b.nbrs {
		g.offsets[u+1] = g.offsets[u] + int64(len(run))
		if d := int32(len(run)); d > g.maxDegree {
			g.maxDegree = d
		}
	}
	g.adj = make([]NodeID, g.offsets[n])
	if b.elabels != nil {
		g.edgeLabels = make([]Label, g.offsets[n])
	}
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		run := g.adj[lo:hi]
		copy(run, b.nbrs[u])
		b.nbrs[u] = nil
		if g.edgeLabels == nil {
			slices.SortFunc(run, func(a, b NodeID) int {
				if c := cmp.Compare(g.labels[a], g.labels[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		} else {
			el := g.edgeLabels[lo:hi]
			copy(el, b.elabels[u])
			b.elabels[u] = nil
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

	b.nbrs, b.elabels = nil, nil
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
