package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/signature"
	"repro/internal/smartpsi"
)

// The traced run records spans from here, around calls into each
// layer's public API, on the same generated queries the end-to-end
// run sends; it puts no span inside the program. One goroutine makes
// every call, so times are service times with nothing contending.
//
// A request's spans nest the way the request does:
//
//	server.handler          the real server.NewServer(...).Handler(), no socket
//	  smartpsi.evaluate     the engine call, through the tracedEngine wrapper
//	    smartpsi.train      \ reconstructed from the stage times the engine
//	    smartpsi.eval        > reports in its public Result, laid back to back
//	      smartpsi.model    /  so that eval ends where the call ends
//
// Each name's self time (span minus children) is one layer's own share
// of a request: server.handler's is the server's overhead (decode,
// validate, fingerprint, admission, observe, encode, access log) and
// smartpsi.evaluate's is the engine's prepare stage. The layers below
// the engine cannot be spanned from outside it, so they are measured
// by calling them directly on the same queries (graph.*, signature.*,
// fsm.*, plan.*, psi.*, ml.* spans, which have no parent).

// traceShare: the traced run uses the first 1/traceShare of the
// measured sequence. It passes over it six times and is in-process
// and single-threaded, so it stays inside a run's time this way.
const traceShare = 16

// engineOptions are what psi-serve -threads 1 -seed 42 builds its
// engine with.
var engineOptions = smartpsi.Options{Threads: 1, Seed: 42}

// tracedEngine is the evaluator handed to the in-process server. It
// spans the engine call and keeps the Result for the stage metrics.
type tracedEngine struct {
	eng  *smartpsi.Engine
	tr   *tracer
	req  int
	last *smartpsi.Result
}

func (t *tracedEngine) Graph() *graph.Graph { return t.eng.Graph() }

func (t *tracedEngine) EvaluateBudget(q graph.Query, deadline time.Time) (*smartpsi.Result, error) {
	return t.EvaluateTagged(q, deadline, "", "")
}

// EvaluateTagged is the method the server picks when workload
// analytics is armed, as it is by default in psi-serve.
func (t *tracedEngine) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	id := t.tr.begin("smartpsi.evaluate", t.req)
	res, err := t.eng.EvaluateTagged(q, deadline, requestID, fingerprint)
	t.tr.end(id)
	t.last = res
	if err == nil && t.tr != nil {
		end := t.tr.spans[id].end
		eval := t.tr.stage("smartpsi.eval", id, end, res.EvalTime)
		t.tr.stage("smartpsi.model", eval, end, res.ModelTime)
		t.tr.stage("smartpsi.train", id, end-res.EvalTime, res.TrainTime)
	}
	return res, err
}

// mallocs runs f and returns the heap objects and bytes it allocated.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, or whenEmpty for 0/0 (a workload that never reaches
// the mechanism: no cache lookups, no model predictions).
func ratio(a, b, whenEmpty float64) float64 {
	if b == 0 {
		return whenEmpty
	}
	return a / b
}

// handlerPass is what serving the trace order through the in-process
// server observed, spans on or off.
type handlerPass struct {
	handlerMS []float64          // ServeHTTP time per request
	outsideMS []float64          // handler time minus the body's own elapsed_ms
	results   []*smartpsi.Result // the engine's Result per request
	failed    int
	verified  int
}

// runHandlerPasses serves every request of order twice, once with
// spans off and once on, alternating which goes first so that drift
// and warm-up fall on both alike.
func runHandlerPasses(h http.Handler, te *tracedEngine, tr *tracer, in *prepared, order []int) (off, on *handlerPass) {
	n := len(order)
	passes := [2]*handlerPass{}
	for k := range passes {
		passes[k] = &handlerPass{handlerMS: make([]float64, n), outsideMS: make([]float64, n), results: make([]*smartpsi.Result, n)}
	}
	for i, qi := range order {
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			p := passes[0]
			te.tr, te.req = nil, i
			if traced {
				p, te.tr = passes[1], tr
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/psi", bytes.NewReader(in.bodies[qi]))
			rec := httptest.NewRecorder()
			id := te.tr.begin("server.handler", i)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			p.handlerMS[i] = ms(time.Since(t0))
			te.tr.end(id)
			p.results[i] = te.last

			elapsed, verified, err := in.chk.check(qi, rec.Code, rec.Body.Bytes())
			p.outsideMS[i] = p.handlerMS[i] - elapsed
			if verified {
				p.verified++
			}
			if err != nil {
				p.failed++
				fmt.Printf("FAILED in-process request %d, query fingerprint %s: %v\n", i, fsm.PivotFingerprint(in.seq.queries[qi], 0), err)
			}
		}
	}
	return passes[0], passes[1]
}

// enginePasses calls the engine directly, as the server would, twice
// per request: with obs collection off and on, alternating which goes
// first. It leaves collection on.
func enginePasses(eng *smartpsi.Engine, in *prepared, order []int, fps []string) (quietMS, observedMS float64, observed []*smartpsi.Result, err error) {
	observed = make([]*smartpsi.Result, len(order))
	defer obs.Enable(true)
	for i, qi := range order {
		for k := 0; k < 2; k++ {
			collecting := (i+k)%2 == 1
			obs.Enable(collecting)
			res, err := eng.EvaluateTagged(in.seq.queries[qi], time.Time{}, "bench", fps[qi])
			if err != nil {
				return 0, 0, nil, err
			}
			if collecting {
				observedMS += ms(res.TotalTime)
				observed[i] = res
			} else {
				quietMS += ms(res.TotalTime)
			}
		}
	}
	return quietMS, observedMS, observed, nil
}

// allocationPass counts heap allocations per request in an untimed
// pass of its own (reading the allocator's counters stops the world,
// which would disturb the timed passes): inside ServeHTTP, with
// requests and recorders made beforehand, and inside the engine call.
func allocationPass(h http.Handler, te *tracedEngine, eng *smartpsi.Engine, in *prepared, order []int, fps []string) (handlerObjects, engineObjects, engineBytes float64) {
	reqs := make([]*http.Request, len(order))
	recs := make([]*httptest.ResponseRecorder, len(order))
	for i, qi := range order {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/psi", bytes.NewReader(in.bodies[qi]))
		recs[i] = httptest.NewRecorder()
	}
	te.tr = nil
	handlerObjects, _ = mallocs(func() {
		for i := range order {
			h.ServeHTTP(recs[i], reqs[i])
		}
	})
	engineObjects, engineBytes = mallocs(func() {
		for _, qi := range order {
			// The timed passes already evaluated these queries without error.
			_, _ = eng.EvaluateTagged(in.seq.queries[qi], time.Time{}, "bench", fps[qi])
		}
	})
	n := float64(len(order))
	return handlerObjects / n, engineObjects / n, engineBytes / n
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(env *environment, w workload, seed int64, seconds int) (*report, error) {
	waitForQuiet()
	calBefore := calibrate()
	n := w.perSecond * seconds
	in, err := prepare(w, seed, n*w.batch, max(n/traceShare, 16), env.procs)
	if err != nil {
		return nil, err
	}
	order, g := in.seq.measured[0], in.g
	m := map[string]float64{"machine.cal_ms": calBefore}
	rep := &report{metrics: m}
	fmt.Printf("traced requests: %d (the first 1/%d of the measured sequence), %d with reference answers\n", len(order), traceShare, len(in.seq.verify))

	// Outermost layer first: the same queries over loopback to a real
	// psi-serve, one client, one query to a request whatever the
	// workload's batch, for the transport floor and the server's own
	// work counters.
	srv, err := startServer(env.serverBin, w.dataset, env.workDir)
	if err != nil {
		return nil, err
	}
	loopback, err := serve(srv, in, in.seq.measured, 1, 1, seconds)
	if err != nil {
		return nil, err
	}
	loop := loopback.segments[0]
	for name, v := range perRequestCounts(loopback.counters) {
		m[name] = v
	}
	rep.attempted, rep.failed, rep.verified = len(loop.latencyMS), loop.failed, loop.verified

	// The in-process server, configured as psi-serve configures it:
	// collection on, workload analytics armed, access log written.
	obs.Enable(true)
	eng, err := smartpsi.NewEngine(g, engineOptions)
	if err != nil {
		return nil, err
	}
	te := &tracedEngine{eng: eng}
	h := server.NewServer(te, server.Config{
		Workers: 2, QueueDepth: 64,
		Workload: obs.NewWorkload(64),
		Log:      slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}).Handler()
	runHandlerPasses(h, te, newTracer(), in, in.seq.warm) // unmeasured warm-up
	tr := newTracer()
	off, on := runHandlerPasses(h, te, tr, in, order)
	rep.attempted += 2 * len(order)
	rep.failed += off.failed + on.failed
	rep.verified += off.verified + on.verified
	reqs := float64(len(order))

	requestSpans := len(tr.spans)
	self := selfTimes(tr.spans)
	selfMS := func(name string) float64 { return ms(self[name]) / reqs }
	m["server.handler_ms"] = sum(on.handlerMS) / reqs
	m["server.overhead_us"] = selfMS("server.handler") * 1e3
	m["smartpsi.prepare_ms"] = selfMS("smartpsi.evaluate")
	m["trace.overhead_ratio"] = sum(on.handlerMS) / sum(off.handlerMS)
	m["trace.self_sum_ratio"] = (selfMS("server.handler") + selfMS("smartpsi.evaluate") + selfMS("smartpsi.train") +
		selfMS("smartpsi.eval") + selfMS("smartpsi.model")) / m["server.handler_ms"]
	fmt.Println("self time per request, ms (span minus children):")
	for _, name := range []string{"server.handler", "smartpsi.evaluate", "smartpsi.train", "smartpsi.eval", "smartpsi.model"} {
		fmt.Printf("  %-20s %10.4f\n", name, selfMS(name))
	}

	// transport.us: what a socket adds. Both sides subtract the
	// evaluation time the response body itself reports, so the query's
	// cost cancels request by request and only the outside remains.
	loopOutside := make([]float64, len(loop.latencyMS))
	for i := range loopOutside {
		loopOutside[i] = loop.latencyMS[i] - loop.elapsedMS[i]
	}
	m["transport.us"] = (median(loopOutside) - median(on.outsideMS)) * 1e3

	var total, train, eval, model time.Duration
	var hits, misses, flips, fallbacks, alphaOK, alphaAll float64
	for _, r := range on.results {
		total, train, eval, model = total+r.TotalTime, train+r.TrainTime, eval+r.EvalTime, model+r.ModelTime
		hits, misses = hits+float64(r.CacheHits), misses+float64(r.CacheMisses)
		flips, fallbacks = flips+float64(r.Flips), fallbacks+float64(r.Fallbacks)
		alphaOK, alphaAll = alphaOK+float64(r.Alpha.Correct), alphaAll+float64(r.Alpha.Total)
	}
	m["smartpsi.total_ms"] = ms(total) / reqs
	m["smartpsi.train_ms"] = ms(train) / reqs
	m["smartpsi.eval_ms"] = ms(eval) / reqs
	m["smartpsi.model_ms"] = ms(model) / reqs
	m["smartpsi.train_share"] = ms(train) / ms(total)
	m["smartpsi.cache_hit_ratio"] = ratio(hits, hits+misses, 0)
	m["smartpsi.flips_per_query"] = flips / reqs
	m["smartpsi.fallbacks_per_query"] = fallbacks / reqs
	m["smartpsi.alpha_accuracy"] = ratio(alphaOK, alphaAll, 1)

	// The engine alone, with collection off and on.
	fps := make([]string, len(in.seq.queries))
	for _, qi := range order {
		fps[qi] = fsm.PivotFingerprint(in.seq.queries[qi], 0).String()
	}
	quietMS, observedMS, observed, err := enginePasses(eng, in, order, fps)
	if err != nil {
		return nil, err
	}
	m["obs.enabled_cost_ratio"] = observedMS / quietMS
	m["server.allocs_per_req"], m["smartpsi.allocs_per_query"], m["smartpsi.bytes_per_query"] = allocationPass(h, te, eng, in, order, fps)

	if err := traceShards(m, in, order, fps, observed); err != nil {
		return nil, err
	}
	traceLowerLayers(m, tr, in, order, eng, on.results, seed)

	tracePath := filepath.Join(env.workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(f, tr.spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans (%d in requests) written to %s\n", len(tr.spans), requestSpans, tracePath)
	calAfter := calibrate()
	m["machine.cal_drift"] = calAfter/calBefore - 1
	return rep, nil
}

// traceShards measures the scatter path: a 2-shard label-hash cluster
// against the single engine on the same queries (those within the
// cluster's query radius; the rest it rejects by design).
func traceShards(m map[string]float64, in *prepared, order []int, fps []string, single []*smartpsi.Result) error {
	t0 := time.Now()
	cluster, err := shard.NewCluster(in.g, shard.Options{Shards: 2, Strategy: shard.LabelHash, Workers: 1, Engine: engineOptions})
	if err != nil {
		return err
	}
	defer cluster.Close()
	m["shard.build_s"] = time.Since(t0).Seconds()
	sliceNodes := 0
	for _, st := range cluster.ShardStatuses() {
		sliceNodes += st.OwnedNodes + st.HaloNodes
	}
	m["shard.halo_node_ratio"] = float64(sliceNodes) / float64(in.g.NumNodes())

	var scatterMS, singleMS float64
	accepted := 0
	for i, qi := range order {
		t0 := time.Now()
		gth, err := cluster.EvaluateScatter(in.seq.queries[qi], time.Time{}, "bench", fps[qi])
		took := ms(time.Since(t0))
		var tooWide *shard.RadiusError
		if errors.As(err, &tooWide) {
			continue
		}
		if err != nil {
			return err
		}
		if gth.Partial || !slices.Equal(gth.Res.Bindings, single[i].Bindings) {
			return fmt.Errorf("scatter answer differs from the single engine's on query %s", fps[qi])
		}
		accepted++
		scatterMS += took
		singleMS += ms(single[i].TotalTime)
	}
	if accepted == 0 {
		return fmt.Errorf("no traced query is within the cluster's query radius")
	}
	m["shard.scatter_ms"] = scatterMS / float64(accepted)
	m["shard.scatter_overhead_ratio"] = scatterMS / singleMS
	fmt.Printf("shard: %d of %d traced queries within the query radius\n", accepted, len(order))
	return nil
}

// Sizes of the direct measurements of the layers below the engine.
const (
	graphCalls         = 1 << 20 // calls per graph micro-measurement
	candidatesPerQuery = 128     // pivot candidates evaluated per query and mode
	lowerLayerQueries  = 64      // distinct queries the psi and ml measurements use
)

// traceLowerLayers measures graph, signature, fsm, plan, psi and ml by
// calling their public APIs on the traced queries, one root span per
// call.
func traceLowerLayers(m map[string]float64, tr *tracer, in *prepared, order []int, eng *smartpsi.Engine, results []*smartpsi.Result, seed int64) {
	g, sigs := in.g, eng.Signatures()
	timed := func(name string, req int, f func()) time.Duration {
		id := tr.begin(name, req)
		f()
		tr.end(id)
		return tr.spans[id].end - tr.spans[id].start
	}
	// Distinct queries in trace order, with the first request of each.
	var distinct, firstReq []int
	seen := make(map[int]bool)
	for i, qi := range order {
		if !seen[qi] {
			seen[qi] = true
			distinct, firstReq = append(distinct, qi), append(firstReq, i)
		}
	}

	// graph: label-range lookups on the queries' pivot labels; HasEdge
	// on node pairs, half of them edges.
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ u, v graph.NodeID }
	pairs := make([]pair, 0, 4096)
	for len(pairs) < cap(pairs) {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		if nbrs := g.Neighbors(u); len(nbrs) > 0 {
			pairs = append(pairs, pair{u, nbrs[rng.Intn(len(nbrs))]}, pair{u, graph.NodeID(rng.Intn(g.NumNodes()))})
		}
	}
	m["graph.label_lookup_ns"] = float64(timed("graph.label_lookup", -1, func() {
		for i := 0; i < graphCalls; i++ {
			q := in.seq.queries[distinct[i%len(distinct)]]
			sink += uint64(len(g.NodesWithLabel(q.G.Label(q.Pivot))))
		}
	}).Nanoseconds()) / graphCalls
	m["graph.has_edge_ns"] = float64(timed("graph.has_edge", -1, func() {
		for i := 0; i < graphCalls; i++ {
			if p := pairs[i%len(pairs)]; g.HasEdge(p.u, p.v) {
				sink++
			}
		}
	}).Nanoseconds()) / graphCalls

	// signature: the data-graph build every start-up pays, the query
	// build every request pays, and what the rows keep resident.
	m["signature.data_build_ms"] = ms(timed("signature.data_build", -1, func() {
		signature.MustBuild(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
	}))
	m["signature.resident_mb"] = float64(sigs.NumNodes()) * float64(sigs.Width()) * 8 / (1 << 20)
	var sigBuild, fingerprint, planning time.Duration
	for k, qi := range distinct {
		q := in.seq.queries[qi]
		sigBuild += timed("signature.query_build", firstReq[k], func() {
			signature.MustBuild(q.G, sigs.Depth(), sigs.Width(), signature.Matrix)
		})
		fingerprint += timed("fsm.fingerprint", firstReq[k], func() { sink += fsm.PivotFingerprint(q, 0).Exact })
		planning += timed("plan.sample_compile", firstReq[k], func() {
			for _, p := range plan.Sample(q, g, 6, rand.New(rand.NewSource(engineOptions.Seed))) {
				plan.MustCompile(q, p)
			}
		})
	}
	perQuery := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(len(distinct)) }
	m["signature.query_build_us"] = perQuery(sigBuild)
	m["fsm.fingerprint_us"] = perQuery(fingerprint)
	m["plan.sample_compile_us"] = perQuery(planning)

	// psi: Evaluator.Evaluate per pivot candidate under the heuristic
	// plan, each mode on the same evenly spaced candidates.
	var spent [2]time.Duration
	var work psi.Stats
	evaluations := 0
	objects, _ := mallocs(func() {
		for k, qi := range distinct[:min(len(distinct), lowerLayerQueries)] {
			q := in.seq.queries[qi]
			ev, err := psi.NewEvaluator(g, q, sigs, signature.MustBuild(q.G, sigs.Depth(), sigs.Width(), signature.Matrix))
			if err != nil {
				continue // the engine already served this query; cannot happen
			}
			heuristic := plan.MustCompile(q, plan.Heuristic(q, g))
			candidates := g.NodesWithLabel(q.G.Label(q.Pivot))
			step := max(len(candidates)/candidatesPerQuery, 1)
			st := psi.NewState(q.Size())
			for mode, name := range []string{"psi.evaluate_opt", "psi.evaluate_pess"} {
				spent[mode] += timed(name, firstReq[k], func() {
					for c := 0; c < len(candidates); c += step {
						// A candidate that exhausts the budget still cost
						// what it cost; only the verdict is dropped.
						_, _ = ev.Evaluate(st, heuristic, candidates[c], psi.Mode(mode), psi.Limits{Deadline: time.Now().Add(time.Second)})
						evaluations++
					}
				})
			}
			work.Add(st.Stats())
		}
	})
	perMode := float64(evaluations) / 2
	m["psi.opt_ns_per_candidate"] = float64(spent[psi.Optimistic].Nanoseconds()) / perMode
	m["psi.pess_ns_per_candidate"] = float64(spent[psi.Pessimistic].Nanoseconds()) / perMode
	m["psi.recursions_per_candidate"] = float64(work.Recursions) / float64(evaluations)
	m["psi.generated_per_recursion"] = ratio(float64(work.Candidates), float64(work.Recursions), 0)
	m["psi.prune_ratio"] = ratio(float64(work.DegPrunes+work.SigPrunes), float64(work.Candidates), 0)
	m["psi.allocs_per_eval"] = objects / float64(evaluations)

	// ml: TrainForest on a dataset shaped like the engine's model α for
	// that query — its training-set size, signature rows as features,
	// validity from the answer as the class — then PredictInto on the
	// same rows. A workload on the no-ML path trains nothing: 0.
	var training, predicting time.Duration
	forests, predictions := 0, 0
	for k, qi := range distinct[:min(len(distinct), lowerLayerQueries)] {
		res := results[firstReq[k]]
		if !res.UsedML {
			continue
		}
		q := in.seq.queries[qi]
		valid := make(map[graph.NodeID]bool, len(res.Bindings))
		for _, b := range res.Bindings {
			valid[b] = true
		}
		ds := ml.Dataset{NumClasses: 2}
		for _, u := range g.NodesWithLabel(q.G.Label(q.Pivot))[:res.TrainedNodes] {
			ds.X = append(ds.X, sigs.Row(u))
			if valid[u] {
				ds.Y = append(ds.Y, 1)
			} else {
				ds.Y = append(ds.Y, 0)
			}
		}
		var forest *ml.Forest
		var err error
		training += timed("ml.forest_train", firstReq[k], func() {
			forest, err = ml.TrainForest(ds, ml.ForestConfig{Seed: engineOptions.Seed + 1})
		})
		if err != nil {
			continue // a non-empty two-class dataset always trains
		}
		forests++
		votes := make([]int, forest.NumClasses())
		predicting += timed("ml.forest_predict", firstReq[k], func() {
			for _, row := range ds.X {
				sink += uint64(forest.PredictInto(row, votes))
			}
		})
		predictions += len(ds.X)
	}
	m["ml.forest_train_ms"] = ratio(ms(training), float64(forests), 0)
	m["ml.forest_predict_ns"] = ratio(float64(predicting.Nanoseconds()), float64(predictions), 0)
}
