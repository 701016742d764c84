// Package difftest is the agreement harness. PSI has one exact answer,
// which every path in the paths table must give. One assertion, agree,
// checks every answer against the oracle: graphtest.ReferencePSI (brute
// force) on tiny cases, match.Backtracking's pivot projection on cases
// large enough for SmartPSI to train. Renumbering the data graph must map
// every answer through the renumbering. A failure names the path and a
// replay triple: the graph (graphtest.Random seed or fuzz input), the
// query's size and index among the two workload.ExtractQueries draws
// for that size from rand.NewSource(100*seed+size), and the engine seed.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/invariant"
	"repro/internal/match"
	"repro/internal/workload"
)

// engineSeed seeds every engine and plan sample the paths build.
const engineSeed = 42

// An instance is one data graph's fixture and the queries asked of it.
type instance struct {
	origin string
	fix    *fixture
	cases  []qcase
}

type qcase struct {
	name string
	q    graph.Query
	want []graph.NodeID // the oracle's answer, ascending
}

// instances answers cases on g with oracle and returns them with a copy
// on g renumbered by a permutation seeded from seed, each answer mapped
// through it.
func instances(t testing.TB, origin string, g *graph.Graph, seed int64, cases []qcase, oracle func(*graph.Graph, graph.Query) []graph.NodeID, tl *tally) []instance {
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumNodes())
	inst := instance{origin, &fixture{t, g, tl, map[string]any{}}, nil}
	re := instance{fmt.Sprintf("%s renumbered by permutation seed %d", origin, seed), &fixture{t, renumber(g, perm), tl, map[string]any{}}, nil}
	for _, c := range cases {
		c.want = oracle(g, c.q)
		inst.cases = append(inst.cases, c)
		mapped := make([]graph.NodeID, len(c.want))
		for i, u := range c.want {
			mapped[i] = graph.NodeID(perm[u])
		}
		slices.Sort(mapped)
		c.want = mapped
		re.cases = append(re.cases, c)
	}
	return []instance{inst, re}
}

// extracted returns two queries of each size 3..maxSize from g.
func extracted(g *graph.Graph, seed int64, maxSize int) []qcase {
	var cs []qcase
	for size := 3; size <= maxSize; size++ {
		for i, q := range must(workload.ExtractQueries(g, size, 2, rand.New(rand.NewSource(100*seed+int64(size))))) {
			cs = append(cs, qcase{name: fmt.Sprintf("size %d query %d", size, i), q: q})
		}
	}
	return cs
}

// endPath is a 6-node path alternating the labels of nodes 0 and 1,
// pivoted at one end: the deepest pivot a 6-node query has.
func endPath(g *graph.Graph) qcase {
	b := graph.NewBuilder(6, 5)
	for i := range 6 {
		b.AddNode(g.Label(graph.NodeID(i % 2)))
		if i > 0 {
			if err := b.AddEdge(graph.NodeID(i-1), graph.NodeID(i)); err != nil {
				panic(err)
			}
		}
	}
	return qcase{name: "6-node path pivoted at its end", q: graph.Query{G: b.MustBuild(), Pivot: 0}}
}

func bruteForce(g *graph.Graph, q graph.Query) []graph.NodeID {
	var want []graph.NodeID
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if graphtest.ReferencePSI(g, q, u) {
			want = append(want, u)
		}
	}
	return want
}

func backtracking(g *graph.Graph, q graph.Query) []graph.NodeID {
	want, _, err := match.PivotBindings(must(match.NewBacktracking(g, q.G)), q, match.Budget{})
	if err != nil {
		panic(err)
	}
	slices.Sort(want)
	return want
}

// fuzzInstance decodes fuzz bytes into a small data graph and a
// connected pivoted query induced from it. Returns ok=false for inputs
// that do not decode to a usable instance (the fuzzer skips those).
func fuzzInstance(data []byte) (*graph.Graph, graph.Query, bool) {
	if len(data) < 8 {
		return nil, graph.Query{}, false
	}
	n := 3 + int(data[0])%6         // 3..8 data nodes
	numLabels := 1 + int(data[1])%3 // 1..3 node labels
	if len(data) < 2+n {
		return nil, graph.Query{}, false
	}
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(int(data[2+i]) % numLabels))
	}
	for rest := data[2+n:]; len(rest) >= 2; rest = rest[2:] {
		u := graph.NodeID(int(rest[0]) % n)
		v := graph.NodeID(int(rest[1]) % n)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			return nil, graph.Query{}, false
		}
	}
	g, err := b.Build()
	if err != nil || g.NumEdges() == 0 {
		return nil, graph.Query{}, false
	}
	// The query is an induced connected subgraph of the data graph, so
	// at least one binding is guaranteed to exist.
	comp := graph.ConnectedComponent(g, graph.NodeID(int(data[2])%n))
	size := 2 + int(data[3])%3 // 2..4 query nodes
	if len(comp) < size {
		return nil, graph.Query{}, false
	}
	sub, _, err := graph.InducedSubgraph(g, comp[:size])
	if err != nil || !graph.IsConnected(sub) || sub.NumEdges() == 0 {
		return nil, graph.Query{}, false
	}
	q, err := graph.NewQuery(sub, graph.NodeID(int(data[4])%size))
	if err != nil {
		return nil, graph.Query{}, false
	}
	return g, q, true
}

// renumber rebuilds g with node u renamed perm[u].
func renumber(g *graph.Graph, perm []int) *graph.Graph {
	old := make([]graph.NodeID, len(perm))
	for u, v := range perm {
		old[v] = graph.NodeID(u)
	}
	b := graph.NewBuilder(g.NumNodes(), int(g.NumEdges()))
	for _, u := range old {
		b.AddNode(g.Label(u))
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for i, w := range g.Neighbors(u) {
			if u < w {
				if err := b.AddLabeledEdge(graph.NodeID(perm[u]), graph.NodeID(perm[w]), g.EdgeLabelAt(u, i)); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.MustBuild()
}

// agree is the one assertion: every answer path p gives to every case of
// inst equals the case's oracle answer.
func agree(t *testing.T, p path, inst instance) {
	for _, c := range inst.cases {
		answers, err := p.run(inst.fix, c.q)
		replay := fmt.Sprintf("%s: %s, %s, engine seed %d", p.name, inst.origin, c.name, engineSeed)
		if err != nil {
			t.Errorf("%s: %v", replay, err)
			continue
		}
		for i, got := range answers {
			got = slices.Clone(got)
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s: answer %d is %v, the oracle's %v", replay, i+1, got, c.want)
			}
		}
	}
}

// TestAgreement runs every path on Figure 1, eight tiny graphs and three
// ML-sized ones (240 nodes and 3 labels: every label has more than
// smartpsi.MinTrainNodes candidates), each also renumbered. The cases
// must reach SmartPSI's ML path, its no-ML path and a warm hit.
func TestAgreement(t *testing.T) {
	var tl tally
	insts := instances(t, "figure 1", graphtest.Figure1Data(), 1, []qcase{{name: "size 3 query 0", q: graphtest.Figure1Query()}}, bruteForce, &tl)
	for seed := int64(1); seed <= 8; seed++ {
		g := graphtest.Random(15, 35, 3, seed)
		insts = append(insts, instances(t, fmt.Sprintf("tiny graph seed %d", seed), g, seed, extracted(g, seed, 6), bruteForce, &tl)...)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := graphtest.Random(240, 720, 3, seed)
		cs := append(extracted(g, seed, 7), endPath(g))
		insts = append(insts, instances(t, fmt.Sprintf("ML graph seed %d", seed), g, seed, cs, backtracking, &tl)...)
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			for _, inst := range insts {
				agree(t, p, inst)
			}
		})
	}
	t.Logf("SmartPSI evaluations: %d cold on the ML path, %d on the no-ML path, %d warm", tl.ml, tl.noML, tl.warm)
	if tl.ml == 0 || tl.noML == 0 || tl.warm == 0 {
		t.Error("the cases must reach SmartPSI's ML path, its no-ML path and a warm hit")
	}
}

// FuzzAgreement runs every path on fuzzed small instances against the
// brute-force oracle, with deep invariant checking on.
func FuzzAgreement(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 1, 2, 2, 3, 0, 2, 3, 4, 1, 3})
	f.Add([]byte{3, 2, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{5, 0, 7, 7, 7, 7, 7, 7, 7, 7, 0, 1, 1, 2, 0, 2, 2, 4, 4, 6})
	f.Add([]byte{1, 2, 1, 0, 2, 2, 1, 0, 3, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q, ok := fuzzInstance(data)
		if !ok {
			t.Skip()
		}
		prev := invariant.Enabled()
		invariant.Enable(true) // deep-check every witness the evaluators find
		defer invariant.Enable(prev)
		c := qcase{name: fmt.Sprintf("size %d query 0", q.Size()), q: q}
		for _, inst := range instances(t, fmt.Sprintf("fuzz input %x", data), g, 1, []qcase{c}, bruteForce, &tally{}) {
			for _, p := range paths {
				agree(t, p, inst)
			}
		}
	})
}
