package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	repro "repro"
	"repro/internal/graph"
)

// environment is where a run happens.
type environment struct {
	root      string // the checkout under test
	workDir   string // everything a run writes goes here
	serverBin string
	procs     int
}

// report is the outcome of one run, end-to-end or traced.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	verified  int // responses compared with the reference evaluator
}

// giveUpAfter is how long the warm-up and the measured sequence of a
// run sized for seconds may take together before the driver stops
// sending: every run must end well inside its caller's 180 s whatever
// the machine does. The 15 s on top are for the shortest runs: a single
// youtube_eval request can take two seconds.
func giveUpAfter(seconds int) time.Duration { return time.Duration(3*seconds+15) * time.Second }

// coldStarts is how many times a run starts psi-serve from exec to
// ready; setup_s is their median and the last one serves the run.
const coldStarts = 5

var sink uint64 // keeps measured results alive

// calibrate times a fixed ALU+memory loop (random read-modify-writes
// over 8 MiB; the fastest of three passes over touched memory), in
// milliseconds. It tells a slow machine from a slow commit; nothing in
// the repository can move it.
func calibrate() float64 {
	const words = 1 << 20
	buf := make([]uint64, words)
	best := time.Duration(0)
	for pass := 0; pass < 4; pass++ { // pass 0 touches the pages, untimed
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 4*words; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&(words-1)] += x
		}
		if d := time.Since(t0); pass > 0 && (best == 0 || d < best) {
			best = d
		}
		sink += buf[x&(words-1)]
	}
	return float64(best.Nanoseconds()) / 1e6
}

// prepared is a run's generated input, ready to send.
type prepared struct {
	g      *graph.Graph
	seq    *sequence
	bodies [][]byte
	chk    *checker
}

// prepare generates the workload's graph (the same generator and seed
// psi-serve -dataset uses), the request sequence of n requests for
// seed, the wire bodies and the reference answers. keep > 0 cuts the
// sequence down to its first keep measured requests (and as many
// warm-up ones) and has every one of those compared with the
// reference: the traced run is short enough to afford it.
func prepare(w workload, seed int64, n, keep, procs int) (*prepared, error) {
	g, err := repro.GenerateDataset(w.dataset)
	if err != nil {
		return nil, err
	}
	seq, err := w.generate(g, seed, n)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if keep > 0 {
		order := seq.flat()
		order = order[:min(keep, len(order))]
		seq.measured = [][]int{order}
		seq.warm = seq.warm[:min(keep, len(seq.warm))]
		seq.verify = slices.Clone(order)
		slices.Sort(seq.verify)
		seq.verify = slices.Compact(seq.verify)
	}
	bodies := make([][]byte, len(seq.queries))
	for i, q := range seq.queries {
		if bodies[i], err = requestBody(q); err != nil {
			return nil, err
		}
	}
	chk, err := newChecker(g, seq, procs)
	if err != nil {
		return nil, err
	}
	return &prepared{g: g, seq: seq, bodies: bodies, chk: chk}, nil
}

// serverCounters reads the counters of the server's /metrics.json.
func serverCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return doc.Counters, nil
}

// perRequestCounts turns the server's own counters into the four
// work-per-request figures. They are counts made at the real
// boundaries, nearly but not exactly repeatable: preemption budgets
// are wall-clock.
func perRequestCounts(c map[string]float64) map[string]float64 {
	reqs, queries := c["server_requests_total"], c["smartpsi_queries_total"]
	return map[string]float64{
		"psi.recursions_per_req":         c["psi_recursions_total"] / reqs,
		"psi.candidates_per_req":         c["psi_candidates_total"] / reqs,
		"smartpsi.trained_nodes_per_req": c["smartpsi_trained_nodes_total"] / reqs,
		"smartpsi.ml_query_ratio":        c["smartpsi_ml_queries_total"] / queries,
	}
}

// served is what one server saw of one sequence.
type served struct {
	segments   []*driven          // one per segment sent, in order
	counters   map[string]float64 // the server's /metrics.json counters afterwards
	rssMB      float64            // its VmHWM afterwards
	stealShare float64            // share of the VM's CPU time the hypervisor took meanwhile
}

// serve sends the warm-up and then the measured segments to srv, one
// after the other, batch queries to an HTTP request, closed loop
// through nClients keep-alive clients, reads the server's counters and
// memory peak, and drains it with SIGTERM. srv is gone when serve
// returns.
func serve(srv *serverProc, in *prepared, measured [][]int, nClients, batch, seconds int) (*served, error) {
	clients := newClients(nClients)
	out, err := func() (*served, error) {
		giveUp := time.Now().Add(giveUpAfter(seconds))
		warm, err := in.requests(in.seq.warm, batch)
		if err != nil {
			return nil, err
		}
		if _, err := drive(srv, clients, warm, in.chk, giveUp); err != nil {
			return nil, err
		}
		segs := make([][]request, len(measured))
		for k, order := range measured {
			if segs[k], err = in.requests(order, batch); err != nil {
				return nil, err
			}
		}
		stolen0, total0, err := stolenTicks()
		if err != nil {
			return nil, err
		}
		out := &served{}
		for _, reqs := range segs {
			d, err := drive(srv, clients, reqs, in.chk, giveUp)
			if err != nil {
				return nil, err
			}
			out.segments = append(out.segments, d)
		}
		stolen1, total1, err := stolenTicks()
		if err != nil {
			return nil, err
		}
		out.stealShare = (stolen1 - stolen0) / (total1 - total0)
		if out.rssMB, err = srv.peakRSSMB(); err != nil {
			return nil, err
		}
		out.counters, err = serverCounters(srv.url)
		return out, err
	}()
	if err != nil {
		srv.kill()
		return nil, err
	}
	for _, c := range clients {
		c.CloseIdleConnections() // before the drain, so the server has no connection to wait for
	}
	return out, srv.stop()
}

// summarize turns the measured segments into the run's counts and its
// request metrics, and adds up the time they took. Each metric is its
// best value over the segments sent in full (the highest qps, the
// lowest p50_ms, p95_ms and cpu_ms_per_req), each segment's figure
// taken from that segment's own samples. Every segment holds the same
// work on every run of a workload, and what disturbs a run on a shared
// machine (neighbours taking cache and memory bandwidth, stolen CPU
// time) only ever slows it, so the least disturbed segment says most
// about the code; a change that makes the code slower slows all five.
// NOISE.md compares it with the median of five over ten runs. A failed
// request is not an OK response, and is charged timeoutMS of latency
// instead of being dropped.
func summarize(segs []*driven) (rep *report, wallS float64, err error) {
	rep = &report{}
	var rates, p50, p95, cpuMS []float64
	for _, d := range segs {
		sent := len(d.latencyMS)
		rep.attempted, rep.failed, rep.verified = rep.attempted+sent, rep.failed+d.failed, rep.verified+d.verified
		wallS += d.wallS
		if sent < d.requests {
			continue // the driver gave up inside or before this segment
		}
		latency := slices.Clone(d.latencyMS)
		slices.Sort(latency)
		rates = append(rates, float64(sent-d.failed)/d.wallS)
		p50 = append(p50, percentile(latency, 0.50))
		p95 = append(p95, percentile(latency, 0.95))
		cpuMS = append(cpuMS, d.cpuS*1e3/float64(sent))
	}
	if len(rates) == 0 {
		return nil, 0, fmt.Errorf("the driver gave up before one segment was sent in full")
	}
	fmt.Printf("segment qps %.5g\nsegment p50_ms %.5g\nsegment p95_ms %.5g\nsegment cpu_ms_per_req %.5g\n", rates, p50, p95, cpuMS)
	rep.metrics = map[string]float64{
		"qps":            slices.Max(rates),
		"p50_ms":         slices.Min(p50),
		"p95_ms":         slices.Min(p95),
		"cpu_ms_per_req": slices.Min(cpuMS),
		// Not end-to-end metrics: what the median of the segments
		// would have reported, for -aa to set beside the best.
		"qps.median5":            median(rates),
		"p50_ms.median5":         median(p50),
		"p95_ms.median5":         median(p95),
		"cpu_ms_per_req.median5": median(cpuMS),
	}
	return rep, wallS, nil
}

// runEndToEnd measures one workload against a real psi-serve over
// loopback HTTP, tracing off.
func runEndToEnd(env *environment, w workload, seed int64, seconds int) (*report, error) {
	n := w.perSecond * seconds
	waitForQuiet()
	calBefore := calibrate()
	in, err := prepare(w, seed, n*w.batch, 0, env.procs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("requests: %d warm-up + %d measured in %d segments, queries per request %d, over %d distinct queries, %d with reference answers, %d client(s)\n",
		len(in.seq.warm)/w.batch, n, segments, w.batch, len(in.seq.queries), len(in.seq.verify), w.clients)
	fmt.Printf("machine.cal_ms %.3f ms (before)\n", calBefore)

	var srv *serverProc
	startups := make([]float64, coldStarts)
	for i := range startups {
		if srv, err = startServer(env.serverBin, w.dataset, env.workDir); err != nil {
			return nil, err
		}
		startups[i] = srv.startup.Seconds()
		if i < coldStarts-1 {
			// Nothing was served, so there is nothing to drain; and a
			// SIGTERM this soon after /readyz can beat psi-serve to
			// installing its signal handler.
			srv.kill()
		}
	}
	measured, err := serve(srv, in, in.seq.measured, w.clients, w.batch, seconds)
	if err != nil {
		return nil, err
	}
	calAfter := calibrate()

	rep, wall, err := summarize(measured.segments)
	if err != nil {
		return nil, err
	}
	if rep.attempted < n {
		fmt.Printf("GAVE UP after %s: the machine is several times slower than the sequence was sized for; %d of %d requests sent, metrics cover the segments sent in full\n", giveUpAfter(seconds), rep.attempted, n)
	}
	rep.metrics["peak_rss_mb"] = measured.rssMB
	rep.metrics["setup_s"] = median(startups)
	rep.metrics["machine.cal_ms"] = calBefore // not an end-to-end metric either; -aa reports its spread
	fmt.Printf("latency samples: %d a segment (%d beyond p95); measured for %.2f s; %d responses compared with the reference\n",
		n/segments, samplesBeyond(n/segments, 0.95), wall, rep.verified)
	fmt.Printf("machine.steal_share %.4f (share of this VM's CPU time the hypervisor took during the measured sequence)\n",
		measured.stealShare)
	printSorted(perRequestCounts(measured.counters), "(server /metrics.json; informational here, reported by --trace 1)")
	fmt.Printf("machine.cal_ms %.3f ms (after), machine.cal_drift %.4f\n", calAfter, calAfter/calBefore-1)
	return rep, nil
}
