package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/signature"
	"repro/internal/smartpsi"
)

// A path is one way the repository answers a PSI query. run returns
// every answer the path gives to q on f's graph; each must equal the
// oracle's bindings. An error is the path failing on its own terms: an
// engine error, a partial gather, a miscounted candidate set, a valid
// node its filter refuses, a cold third sighting.
type path struct {
	name string
	run  func(f *fixture, q graph.Query) ([][]graph.NodeID, error)
}

// paths is the table. A new answer path is one more row.
var paths = func() []path {
	var ps []path
	add := func(name string, run func(*fixture, graph.Query) ([][]graph.NodeID, error)) {
		ps = append(ps, path{name, run})
	}
	for _, mode := range []psi.Mode{psi.Optimistic, psi.Pessimistic} {
		for _, method := range []signature.Method{signature.Matrix, signature.Exploration} {
			add(fmt.Sprintf("psi/%v/%v", mode, method), evaluator(mode, method, false, 1))
			add(fmt.Sprintf("psi/%v/%v/filtered", mode, method), evaluator(mode, method, true, 1))
		}
	}
	add("psi/pessimistic/sampled-plans", evaluator(psi.Pessimistic, signature.Matrix, false, 6))
	for _, s := range []psi.Strategy{psi.OptimisticOnly, psi.PessimisticOnly, psi.TwoThreaded} {
		add("psi/EvaluateAll/"+s.String(), evaluateAll(s))
	}
	add("server/Reference", reference)
	add("match/backtracking", enumeration(match.NewBacktracking))
	add("match/turboiso", enumeration(match.NewTurboIso))
	add("match/cfl", enumeration(match.NewCFL))
	add("match/graphql", enumeration(match.NewGraphQL))
	add("match/turboiso+", turboIsoPlus)
	for _, e := range []struct {
		name      string
		opts      smartpsi.Options
		sightings int
	}{
		{"threads-1", smartpsi.Options{Threads: 1}, 1},
		{"threads-2", smartpsi.Options{Threads: 2}, 1},
		{"sightings", smartpsi.Options{}, 4},
		{"no-type-model", smartpsi.Options{DisableTypeModel: true}, 1},
		{"no-plan-model", smartpsi.Options{DisablePlanModel: true}, 1},
		{"no-preemption", smartpsi.Options{DisablePreemption: true}, 1},
		{"no-prepared-cache", smartpsi.Options{DisablePreparedCache: true}, 1},
	} {
		add("smartpsi/"+e.name, engine(e.name, e.opts, e.sightings))
	}
	for _, n := range []int{1, 2, 3, 8} {
		add(fmt.Sprintf("shard/cluster-%d", n), cluster(n))
	}
	add("shard/nodes-3", nodes)
	add("server/v1/psi", served("engine", 0))
	add("server/v1/psi/batch", batch)
	add("server/fleet", served("fleet", 2))
	return ps
}()

func one(ans []graph.NodeID, err error) ([][]graph.NodeID, error) { return [][]graph.NodeID{ans}, err }

// evaluator runs mode on every data node, on an evaluator over method's
// data signatures, optionally Filtered, under each of up to plans plans
// plan.Sample draws (the first is the heuristic plan): one answer per
// plan, as the verdict does not depend on the plan. Admits must hold for
// every node found valid.
func evaluator(mode psi.Mode, method signature.Method, filtered bool, plans int) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		ev, err := f.evaluator(q, method)
		if err != nil {
			return nil, err
		}
		if filtered {
			ev = ev.Filtered()
		}
		var out [][]graph.NodeID
		for _, p := range plan.Sample(q, f.g, plans, rand.New(rand.NewSource(engineSeed))) {
			c, err := plan.Compile(q, p)
			if err != nil {
				return nil, err
			}
			st := psi.NewState(q.Size())
			var valid []graph.NodeID
			for u := graph.NodeID(0); int(u) < f.g.NumNodes(); u++ {
				ok, err := ev.Evaluate(st, c, u, mode, psi.Limits{})
				switch {
				case err != nil:
					return nil, err
				case ok && !ev.Admits(u):
					return nil, fmt.Errorf("valid node %d is not admitted", u)
				case ok:
					valid = append(valid, u)
				}
			}
			out = append(out, valid)
		}
		return out, nil
	}
}

func evaluateAll(s psi.Strategy) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		ev, err := f.evaluator(q, signature.Matrix)
		if err != nil {
			return nil, err
		}
		res, err := psi.EvaluateAll(ev, s, 0, time.Time{})
		if err == nil {
			err = f.checkCandidates(q, res.Candidates)
		}
		return one(res.Bindings, err)
	}
}

func reference(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
	ref := memo(f, "reference", func() *server.Reference { return must(server.NewReference(f.g)) })
	ids, err := ref.Bindings(q)
	return one(nodeIDs(ids), err)
}

// enumeration projects a full-enumeration engine's embeddings onto the
// pivot. Its embedding count must equal backtracking's.
func enumeration[E match.Engine](newEngine func(g, q *graph.Graph) (E, error)) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		eng, err := newEngine(f.g, q.G)
		if err != nil {
			return nil, err
		}
		ans, n, err := match.PivotBindings(eng, q, match.Budget{})
		if err != nil {
			return nil, err
		}
		want := memo(f, fmt.Sprintf("embeddings %p", q.G), func() int64 {
			return must(match.CountEmbeddings(must(match.NewBacktracking(f.g, q.G)), match.Budget{}))
		})
		if n != want {
			err = fmt.Errorf("%d embeddings, backtracking enumerates %d", n, want)
		}
		return one(ans, err)
	}
}

func turboIsoPlus(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
	eng, err := match.NewTurboIsoPlus(f.g, q)
	if err != nil {
		return nil, err
	}
	ans, _, err := eng.PivotBindings(match.Budget{})
	return one(ans, err)
}

// engine evaluates q n times on the fixture's engine of that name: with
// the prepared cache on, an ML-path query is warm from its third sighting.
func engine(name string, opts smartpsi.Options, n int) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		eng := memo(f, "engine "+name, func() *smartpsi.Engine {
			opts.Seed = engineSeed
			return must(smartpsi.NewEngine(f.g, opts))
		})
		var out [][]graph.NodeID
		for sighting := 1; sighting <= n; sighting++ {
			res, err := eng.Evaluate(q)
			switch {
			case err != nil:
				return nil, err
			case res.UsedML && sighting >= 3 && !res.Warm:
				return nil, fmt.Errorf("sighting %d served cold", sighting)
			case res.Warm:
				f.tally.warm++
			case res.UsedML:
				f.tally.ml++
			default:
				f.tally.noML++
			}
			out = append(out, res.Bindings)
		}
		return out, nil
	}
}

// cluster scatters q over an in-process cluster of n shards: no partial
// answer, no binding from two shards, and every candidate evaluated
// exactly once, by the shard that owns it.
func cluster(n int) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		c := memo(f, fmt.Sprint("cluster ", n), func() *shard.Cluster {
			return must(shard.NewCluster(f.g, shard.Options{Shards: n, Engine: smartpsi.Options{Seed: engineSeed}}))
		})
		gth, err := c.EvaluateScatter(q, time.Time{}, "", "")
		switch {
		case err != nil:
			return nil, err
		case gth.Partial || gth.Dups != 0:
			return nil, fmt.Errorf("partial %v, %d bindings answered twice", gth.Partial, gth.Dups)
		}
		return one(gth.Res.Bindings, f.checkCandidates(q, gth.Res.Candidates))
	}
}

// nodes asks each of three fleet shard nodes directly: the union of
// their owned answers is the answer, and they evaluate every candidate
// once between them.
func nodes(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
	var union []graph.NodeID
	candidates := 0
	for i := range 3 {
		n := memo(f, fmt.Sprint("node ", i), func() *shard.Node {
			return must(shard.NewNode(f.g, shard.Options{Engine: smartpsi.Options{Seed: engineSeed}}, 3, i))
		})
		res, err := n.EvaluateTagged(q, time.Time{}, "", "")
		if err != nil {
			return nil, fmt.Errorf("node %d: %v", i, err)
		}
		union = append(union, res.Bindings...)
		candidates += res.Candidates
	}
	return one(union, f.checkCandidates(q, candidates))
}

// served posts q to /v1/psi of the fixture's server of that kind (see
// post). A fleet's answer is complete and from both shards.
func served(kind string, shards int) func(*fixture, graph.Query) ([][]graph.NodeID, error) {
	return func(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
		var qr server.QueryResult
		qj := server.QueryToJSON(q)
		if err := f.post(kind, "/v1/psi", server.PSIRequest{Query: &qj}, &qr); err != nil {
			return nil, err
		}
		if qr.Partial || len(qr.Shards) != shards {
			return nil, fmt.Errorf("partial %v with %d shard outcomes", qr.Partial, len(qr.Shards))
		}
		return one(nodeIDs(qr.Bindings), nil)
	}
}

// batch posts q twice in one /v1/psi/batch request.
func batch(f *fixture, q graph.Query) ([][]graph.NodeID, error) {
	var br server.BatchResponse
	qj := server.QueryToJSON(q)
	if err := f.post("engine", "/v1/psi/batch", server.BatchRequest{Queries: []server.QueryJSON{qj, qj}}, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != 2 {
		return nil, fmt.Errorf("%d batch items for 2 queries", len(br.Results))
	}
	var out [][]graph.NodeID
	for i, item := range br.Results {
		if item.Status != http.StatusOK {
			return nil, fmt.Errorf("batch item %d: status %d: %s", i, item.Status, item.Error)
		}
		out = append(out, nodeIDs(item.Result.Bindings))
	}
	return out, nil
}

// A fixture is one data graph and what the paths build over it once
// (signatures, engines, clusters, servers), built on first use.
type fixture struct {
	t     testing.TB // closes the servers when the test ends
	g     *graph.Graph
	tally *tally
	built map[string]any
}

// tally counts SmartPSI's cold ML-path, no-ML-path and warm evaluations.
type tally struct{ ml, noML, warm int }

// memo returns f's value of key, building it on first use.
func memo[T any](f *fixture, key string, build func() T) T {
	if _, ok := f.built[key]; !ok {
		f.built[key] = build()
	}
	return f.built[key].(T)
}

// must panics on a fixture that cannot be built: the graphs are valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// evaluator is a psi evaluator for q over method's data signatures.
func (f *fixture) evaluator(q graph.Query, method signature.Method) (*psi.Evaluator, error) {
	sigs := memo(f, method.String(), func() *signature.Signatures {
		return signature.MustBuild(f.g, signature.DefaultDepth, f.g.NumLabels(), method)
	})
	return psi.NewEvaluator(f.g, q, sigs, nil)
}

// checkCandidates compares a scattered or fixed-strategy run's candidate
// count with the single engine's: every node of the pivot's label.
func (f *fixture) checkCandidates(q graph.Query, got int) error {
	if want := len(f.g.NodesWithLabel(q.G.Label(q.Pivot))); got != want {
		return fmt.Errorf("%d candidates evaluated, the pivot's label has %d", got, want)
	}
	return nil
}

// post sends body to route on the fixture's server of that kind and
// decodes the 200 reply into out. The "engine" server is one engine
// behind server.NewServer, the "fleet" server a coordinator over two
// shard-node servers; each starts on first use.
func (f *fixture) post(kind, route string, body, out any) error {
	base := memo(f, "server "+kind, func() string {
		serve := func(eval server.Evaluator) string {
			// A generous default deadline: a -race run is slow.
			ts := httptest.NewServer(server.NewServer(eval, server.Config{DefaultTimeout: time.Minute}).Handler())
			f.t.Cleanup(ts.Close)
			return ts.URL
		}
		opts := smartpsi.Options{Seed: engineSeed}
		if kind == "engine" {
			return serve(must(smartpsi.NewEngine(f.g, opts)))
		}
		addrs := []string{
			serve(must(shard.NewNode(f.g, shard.Options{Engine: opts}, 2, 0))),
			serve(must(shard.NewNode(f.g, shard.Options{Engine: opts}, 2, 1))),
		}
		coord := must(server.NewCoordinator(server.CoordinatorConfig{Addrs: addrs}))
		f.t.Cleanup(coord.Close)
		return serve(coord)
	})
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+route, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, raw)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func nodeIDs(ids []int64) []graph.NodeID {
	out := make([]graph.NodeID, len(ids))
	for i, u := range ids {
		out[i] = graph.NodeID(u)
	}
	return out
}
