package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	repro "repro"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/server"
)

// Graphs are generated once per dataset; the tests need no server.
var testGraphs = map[string]*graph.Graph{}

func datasetGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	if g, ok := testGraphs[name]; ok {
		return g
	}
	g, err := repro.GenerateDataset(name)
	if err != nil {
		t.Fatal(err)
	}
	testGraphs[name] = g
	return g
}

// wire renders a sequence as the bytes the server would receive, in
// order, warm-up included.
func wire(t *testing.T, s *sequence) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, order := range [][]int{s.warm, s.flat()} {
		for _, qi := range order {
			body, err := requestBody(s.queries[qi])
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(body)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func generate(t *testing.T, name string, seed int64, n int) *sequence {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	s, err := w.generate(datasetGraph(t, w.dataset), seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.measured) != segments || len(s.flat()) != n {
		t.Fatalf("%s: %d measured requests in %d segments, want %d in %d", name, len(s.flat()), len(s.measured), n, segments)
	}
	return s
}

func TestSameSeedSameBytesOtherSeedOtherBytes(t *testing.T) {
	// youtube_eval shares its generator code with the others; its graph
	// alone takes a second to build, so it is left to the smoke run.
	for _, name := range []string{"human_distinct", "human_repeat", "yeast_overhead"} {
		a, b, c := generate(t, name, 7, 600), generate(t, name, 7, 600), generate(t, name, 8, 600)
		if !bytes.Equal(wire(t, a), wire(t, b)) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(wire(t, a), wire(t, c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

// Runs on different seeds must do identical work: the same multiset of
// queries in every segment, whatever the order.
func TestEverySeedSendsTheSameWork(t *testing.T) {
	content := func(s *sequence) [][]int {
		var out [][]int
		for _, seg := range s.measured {
			sorted := slices.Clone(seg)
			slices.Sort(sorted)
			out = append(out, sorted)
		}
		slices.SortFunc(out, slices.Compare[[]int])
		return out
	}
	for _, name := range []string{"human_distinct", "human_repeat", "yeast_overhead"} {
		a, b := content(generate(t, name, 7, 5*yeastPool)), content(generate(t, name, 8, 5*yeastPool))
		for k := range a {
			if !slices.Equal(a[k], b[k]) {
				t.Errorf("%s: seeds 7 and 8 put different queries into segment %d", name, k)
			}
		}
	}
	// human_repeat and yeast_overhead repeat queries: there every
	// segment holds the same multiset.
	for _, name := range []string{"human_repeat", "yeast_overhead"} {
		c := content(generate(t, name, 7, 5*yeastPool))
		for k := range c {
			if !slices.Equal(c[k], c[0]) {
				t.Errorf("%s: segment %d differs from segment 0", name, k)
			}
		}
	}
}

func TestHumanDistinctNeverRepeatsAShape(t *testing.T) {
	s := generate(t, "human_distinct", 3, 800)
	seen := make(map[uint64]bool)
	for _, order := range [][]int{s.warm, s.flat()} {
		for _, qi := range order {
			fp := fsm.PivotFingerprint(s.queries[qi], 0).Exact
			if seen[fp] {
				t.Fatalf("exact fingerprint %016x is sent twice (warm-up and measured sets must also be disjoint)", fp)
			}
			seen[fp] = true
		}
	}
	if len(s.warm) == 0 || len(s.verify) == 0 {
		t.Errorf("warm-up %d, verify %d: both must be non-empty", len(s.warm), len(s.verify))
	}
}

func TestHumanRepeatTouchesTheWholeHotSet(t *testing.T) {
	s := generate(t, "human_repeat", 3, 800)
	if len(s.queries) != hotSetSize {
		t.Fatalf("%d distinct queries, want %d", len(s.queries), hotSetSize)
	}
	for qi := 0; qi < hotSetSize; qi++ {
		if !slices.Contains(s.warm, qi) {
			t.Errorf("warm-up never sends hot query %d", qi)
		}
	}
	counts := make([]int, hotSetSize)
	for _, qi := range s.flat() {
		counts[qi]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[hotSetSize-1] {
		t.Errorf("draws are not Zipf-skewed: %v", counts)
	}
}

func TestYeastOverheadStaysOnTheNoMLPath(t *testing.T) {
	g := datasetGraph(t, "yeast")
	s := generate(t, "yeast_overhead", 3, 5*yeastPool)
	if len(s.queries) != yeastPool {
		t.Fatalf("%d queries in the pool, want %d", len(s.queries), yeastPool)
	}
	for _, q := range s.queries {
		if n := g.LabelFrequency(q.G.Label(q.Pivot)); n >= minTrainNodes {
			t.Fatalf("pivot label %d has %d data nodes, the engine would train", q.G.Label(q.Pivot), n)
		}
		if q.Size() != 3 {
			t.Fatalf("query of size %d", q.Size())
		}
	}
}

func TestPercentilesAndSampleCounts(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got := percentile(v, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(v, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := samplesBeyond(100, 0.95); got != 5 {
		t.Errorf("samples beyond p95 of 100 = %d, want 5", got)
	}
	if got := samplesBeyond(600, 0.95); got != 30 {
		t.Errorf("samples beyond p95 of 600 = %d, want 30", got)
	}
	if got := percentile([]float64{3}, 0.95); got != 3 {
		t.Errorf("p95 of one sample = %v", got)
	}
	if got := median([]float64{5, 1, 4, 2}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := relIQR(v), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSummarizeTakesTheLeastDisturbedSegment(t *testing.T) {
	// Five segments of 4 requests, each a little slower than the one
	// before, the third stalled (10x the time, 10x the CPU, one request
	// failed); then one the driver gave up inside, whose two quick
	// requests must not count as a segment, and one it never began. The
	// metrics are the first segment's; the counts cover all that was sent.
	var segs []*driven
	for k := 0; k < 5; k++ {
		f := 1 + float64(k)/10
		d := &driven{requests: 4, latencyMS: []float64{1 * f, 2 * f, 3 * f, 4 * f}, wallS: 0.5 * f, cpuS: 0.004 * f, verified: 4}
		if k == 2 {
			d = &driven{requests: 4, latencyMS: []float64{10, 20, 30, timeoutMS}, wallS: 5, cpuS: 0.04, verified: 4, failed: 1}
		}
		segs = append(segs, d)
	}
	segs = append(segs, &driven{requests: 4, latencyMS: []float64{0.1, 0.1}, wallS: 0.001, verified: 2}, &driven{requests: 4})
	rep, wall, err := summarize(segs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 22 || rep.failed != 1 || rep.verified != 22 || math.Abs(wall-7.401) > 1e-9 {
		t.Errorf("attempted %d, failed %d, verified %d, wall %v; want 22, 1, 22, 7.401", rep.attempted, rep.failed, rep.verified, wall)
	}
	want := map[string]float64{"qps": 8, "cpu_ms_per_req": 1, "p50_ms": 2, "p95_ms": 4}
	for name, v := range want {
		if got := rep.metrics[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, _, err := summarize(segs[5:]); err == nil {
		t.Errorf("no segment sent in full: summarize must fail")
	}
}

func TestZipfCountsAddUp(t *testing.T) {
	counts := zipfCounts(hotSetSize, 1000, zipfS)
	total := 0
	for r, c := range counts {
		total += c
		if r > 0 && c > counts[r-1] {
			t.Errorf("rank %d is sent %d times, rank %d only %d", r, c, r-1, counts[r-1])
		}
	}
	if total != 1000 {
		t.Errorf("counts add up to %d, want 1000", total)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "server.handler", start: 0, end: 100 * us, parent: -1},
		{name: "smartpsi.evaluate", start: 10 * us, end: 90 * us, parent: 0},
		{name: "smartpsi.train", start: 20 * us, end: 50 * us, parent: 1},
		{name: "smartpsi.eval", start: 50 * us, end: 90 * us, parent: 1},
		{name: "smartpsi.model", start: 80 * us, end: 90 * us, parent: 3},
		// A second request: children that overlap each other and stick
		// out of the parent are counted once and clipped.
		{name: "server.handler", start: 200 * us, end: 300 * us, parent: -1, req: 1},
		{name: "smartpsi.evaluate", start: 210 * us, end: 260 * us, parent: 5, req: 1},
		{name: "smartpsi.evaluate", start: 250 * us, end: 310 * us, parent: 5, req: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"server.handler":    20*us + 10*us,
		"smartpsi.evaluate": 10*us + 50*us + 60*us,
		"smartpsi.train":    30 * us,
		"smartpsi.eval":     30 * us,
		"smartpsi.model":    10 * us,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("server.handler", 4)
	inner := tr.begin("smartpsi.evaluate", 4)
	tr.end(inner)
	tr.end(outer)
	stage := tr.stage("smartpsi.eval", inner, tr.spans[inner].end, time.Hour)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 || tr.spans[stage].parent != inner {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[stage].start != tr.spans[inner].start {
		t.Errorf("a stage longer than its parent must be clipped to it")
	}
	var off *tracer
	off.end(off.begin("server.handler", 0)) // must not panic
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Errorf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	g := datasetGraph(t, "yeast")
	s := generate(t, "yeast_overhead", 1, 5*yeastPool)
	s.verify = s.verify[:4]
	chk, err := newChecker(g, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := json.Marshal(map[string]any{"bindings": chk.want[0], "elapsed_ms": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed, verified, err := chk.check(0, 200, right); err != nil || !verified || elapsed != 0.5 {
		t.Errorf("right answer: elapsed %v, verified %v, err %v", elapsed, verified, err)
	}
	if _, verified, err := chk.check(100, 200, []byte(`{"bindings":[]}`)); err != nil || verified {
		t.Errorf("an unverified query's empty answer: verified %v, err %v", verified, err)
	}
	q := s.queries[0]
	other := graph.NodeID(0)
	for g.Label(other) == q.G.Label(q.Pivot) {
		other++
	}
	for name, body := range map[string]string{
		"status":      `{"error":"shed"}`,
		"missing":     `{"bindings":[]}`,
		"wrong label": string(mustJSON(t, map[string]any{"bindings": []int64{int64(other)}})),
		"duplicate":   string(mustJSON(t, map[string]any{"bindings": append(slices.Clone(chk.want[0]), chk.want[0][len(chk.want[0])-1])})),
		"garbage":     `{"bindings":`,
	} {
		status := 200
		if name == "status" {
			status = 429
		}
		if _, _, err := chk.check(0, status, []byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A batch workload's order goes out batch queries to a request, in
// order, and every item of a batch reply is checked.
func TestBatchRequestsCarryTheOrderAndAreChecked(t *testing.T) {
	w, _ := findWorkload("yeast_overhead")
	in, err := prepare(w, 1, 5*yeastPool, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	order := in.seq.measured[0][:2*yeastBatch+5] // the 5 left over are dropped
	single, err := in.requests(order, 1)
	if err != nil || len(single) != len(order) || single[3].path() != "/v1/psi" || !bytes.Equal(single[3].body, in.bodies[order[3]]) {
		t.Fatalf("one query to a request: %d requests, err %v", len(single), err)
	}
	reqs, err := in.requests(order, yeastBatch)
	if err != nil || len(reqs) != 2 {
		t.Fatalf("%d requests, err %v; want 2", len(reqs), err)
	}
	r := reqs[1]
	var sent server.BatchRequest
	if err := json.Unmarshal(r.body, &sent); err != nil {
		t.Fatal(err)
	}
	if r.path() != "/v1/psi/batch" || !slices.Equal(r.queries, order[yeastBatch:2*yeastBatch]) || len(sent.Queries) != yeastBatch || sent.TimeoutMS != timeoutMS {
		t.Fatalf("second batch: path %s, queries %v, %d on the wire", r.path(), r.queries, len(sent.Queries))
	}
	for k, qi := range r.queries {
		if want := server.QueryToJSON(in.seq.queries[qi]); !reflect.DeepEqual(sent.Queries[k], want) {
			t.Fatalf("item %d on the wire is not query %d", k, qi)
		}
	}

	reply := func(edit func(*server.BatchResponse)) []byte {
		res := server.BatchResponse{ElapsedMS: 1.5}
		for _, qi := range r.queries {
			res.Results = append(res.Results, server.BatchItem{Status: 200, Result: &server.QueryResult{Bindings: in.chk.want[qi]}})
		}
		edit(&res)
		return mustJSON(t, res)
	}
	if elapsed, verified, err := in.chk.checkBatch(r.queries, 200, reply(func(*server.BatchResponse) {})); err != nil || !verified || elapsed != 1.5 {
		t.Errorf("right answers: elapsed %v, verified %v, err %v", elapsed, verified, err)
	}
	for name, edit := range map[string]func(*server.BatchResponse){
		"one item shed":     func(res *server.BatchResponse) { res.Results[7] = server.BatchItem{Status: 429, Error: "shed"} },
		"one answer wrong":  func(res *server.BatchResponse) { res.Results[7].Result = &server.QueryResult{Bindings: []int64{1, 1}} },
		"one item missing":  func(res *server.BatchResponse) { res.Results = res.Results[1:] },
		"items out of step": func(res *server.BatchResponse) { slices.Reverse(res.Results) },
	} {
		if _, _, err := in.chk.checkBatch(r.queries, 200, reply(edit)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := in.chk.checkBatch(r.queries, 503, []byte(`{"error":"draining"}`)); err == nil {
		t.Errorf("status 503: accepted")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json must list exactly the workloads and metrics the
// binary's -list prints, with the same units.
func TestBenchmarkJSONMatchesList(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names, listed []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name+"|"+w.Why)
	}
	for _, w := range workloads {
		listed = append(listed, w.name+"|"+w.why)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads: BENCHMARK.json has %q, the binary %q", names, listed)
	}
	for _, c := range []struct {
		kind  string
		json  []entry
		specs []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var a, b []metricSpec
		for _, e := range c.json {
			a = append(a, metricSpec{e.Name, e.Unit, e.Better})
		}
		b = append(b, c.specs...)
		if !slices.Equal(a, b) {
			t.Errorf("%s: BENCHMARK.json has %v, the binary %v", c.kind, a, b)
		}
	}
}
