package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/server"
)

// timeoutMS is every request's deadline. It is far above any latency
// the workloads produce, so no answer depends on timing; a request
// that fails is charged this much latency, which puts it beyond every
// percentile it could hide behind.
const timeoutMS = 10000

// requestBody is the wire form of q.
func requestBody(q graph.Query) ([]byte, error) {
	qj := server.QueryToJSON(q)
	return json.Marshal(server.PSIRequest{Query: &qj, TimeoutMS: timeoutMS})
}

// request is one HTTP request of a run: the queries it carries, by
// index, and its body. One query goes to /v1/psi, several go to
// /v1/psi/batch.
type request struct {
	queries []int
	body    []byte
}

func (r request) path() string {
	if len(r.queries) > 1 {
		return "/v1/psi/batch"
	}
	return "/v1/psi"
}

// requests cuts order into the HTTP requests that send it, batch
// queries to a request in order; a remainder shorter than batch is
// dropped.
func (in *prepared) requests(order []int, batch int) ([]request, error) {
	out := make([]request, 0, len(order)/batch)
	for i := 0; i+batch <= len(order); i += batch {
		r := request{queries: order[i : i+batch]}
		if batch == 1 {
			r.body = in.bodies[order[i]]
		} else {
			wire := server.BatchRequest{TimeoutMS: timeoutMS}
			for _, qi := range r.queries {
				wire.Queries = append(wire.Queries, server.QueryToJSON(in.seq.queries[qi]))
			}
			var err error
			if r.body, err = json.Marshal(wire); err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// checker holds what a run's answers are checked against.
type checker struct {
	g       *graph.Graph
	queries []graph.Query
	want    map[int][]int64 // reference bindings of the sequence's verify queries
}

// newChecker evaluates seq's verify queries with the model-free
// reference evaluator, on every core: the server is not running yet.
func newChecker(g *graph.Graph, seq *sequence, procs int) (*checker, error) {
	ref, err := server.NewReference(g)
	if err != nil {
		return nil, err
	}
	c := &checker{g: g, queries: seq.queries, want: make(map[int][]int64, len(seq.verify))}
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seq.verify); i = int(next.Add(1)) - 1 {
				qi := seq.verify[i]
				b, err := ref.Bindings(seq.queries[qi])
				mu.Lock()
				c.want[qi] = b
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return c, firstErr
}

// check validates one response to query qi: status 200, a decodable
// body, and bindings that pass checkResult. verified reports whether
// the reference comparison ran; elapsedMS is the server's own
// evaluation time from the body.
func (c *checker) check(qi, status int, body []byte) (elapsedMS float64, verified bool, err error) {
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("status %d: %.200s", status, body)
	}
	var res server.QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, false, fmt.Errorf("undecodable body: %v", err)
	}
	verified, err = c.checkResult(qi, &res)
	return res.ElapsedMS, verified, err
}

// checkBatch validates one /v1/psi/batch response to the queries qis:
// status 200, one item per query in order, every item 200 and passing
// checkResult. verified reports whether every item was compared with
// the reference; elapsedMS is the server's own time for the batch.
func (c *checker) checkBatch(qis []int, status int, body []byte) (elapsedMS float64, verified bool, err error) {
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("status %d: %.200s", status, body)
	}
	var res server.BatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, false, fmt.Errorf("undecodable body: %v", err)
	}
	if len(res.Results) != len(qis) {
		return 0, false, fmt.Errorf("%d items for %d queries", len(res.Results), len(qis))
	}
	verified = true
	for k, item := range res.Results {
		if item.Status != http.StatusOK || item.Result == nil {
			return 0, false, fmt.Errorf("item %d: status %d: %.200s", k, item.Status, item.Error)
		}
		compared, err := c.checkResult(qis[k], item.Result)
		if err != nil {
			return 0, false, fmt.Errorf("item %d: %w", k, err)
		}
		verified = verified && compared
	}
	return res.ElapsedMS, verified, nil
}

// checkResult validates the answer to query qi: bindings strictly
// ascending (so duplicate-free) and carrying the pivot's label, and —
// for a verify query — equal to the reference, which is what compared
// reports.
func (c *checker) checkResult(qi int, res *server.QueryResult) (compared bool, err error) {
	q := c.queries[qi]
	label := q.G.Label(q.Pivot)
	for i, b := range res.Bindings {
		if b < 0 || b >= int64(c.g.NumNodes()) {
			return false, fmt.Errorf("binding %d is not a data node", b)
		}
		if i > 0 && b <= res.Bindings[i-1] {
			return false, fmt.Errorf("bindings not strictly ascending at %d", i)
		}
		if c.g.Label(graph.NodeID(b)) != label {
			return false, fmt.Errorf("binding %d has label %d, pivot has %d", b, c.g.Label(graph.NodeID(b)), label)
		}
	}
	want, ok := c.want[qi]
	if !ok {
		return false, nil
	}
	if !slices.Equal(res.Bindings, want) {
		return true, fmt.Errorf("%d bindings, reference has %d", len(res.Bindings), len(want))
	}
	return true, nil
}

// newClients returns one HTTP client per closed-loop client, each
// with its own single keep-alive connection.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	}
	return out
}

// driven is what sending one list of requests observed.
type driven struct {
	requests  int       // how many there were to send
	latencyMS []float64 // by position in the list, of those sent; failures carry timeoutMS
	elapsedMS []float64 // the server's own evaluation time, from each OK body
	failed    int
	verified  int
	wallS     float64 // first request sent to last reply complete
	cpuS      float64 // server CPU seconds spent meanwhile
}

// drive sends reqs in order, closed loop: each client takes the next
// unsent request when its previous reply is complete, and drive
// returns when every reply is in. No request is drawn once giveUp has
// passed: a machine stalled severalfold must not run the benchmark
// into its caller's time limit, and the samples then fall short of
// reqs.
func drive(srv *serverProc, clients []*http.Client, reqs []request, chk *checker, giveUp time.Time) (*driven, error) {
	n := len(reqs)
	d := &driven{requests: n, latencyMS: make([]float64, n), elapsedMS: make([]float64, n)}
	var (
		next     atomic.Int64
		mu       sync.Mutex // guards failed, verified, reported
		reported int
		wg       sync.WaitGroup
	)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for _, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(giveUp) {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				r := reqs[i]
				t0 := time.Now()
				status, body, err := post(client, srv.url+r.path(), r.body)
				d.latencyMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				verified := false
				if err == nil {
					if len(r.queries) > 1 {
						d.elapsedMS[i], verified, err = chk.checkBatch(r.queries, status, body)
					} else {
						d.elapsedMS[i], verified, err = chk.check(r.queries[0], status, body)
					}
				}
				mu.Lock()
				if verified {
					d.verified++
				}
				if err != nil {
					d.failed++
					d.latencyMS[i] = timeoutMS
					if reported < 5 {
						reported++
						fmt.Printf("FAILED request %d, first query's fingerprint %s: %v\n", i, fsm.PivotFingerprint(chk.queries[r.queries[0]], 0), err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	d.wallS = time.Since(begin).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	d.cpuS = cpu1 - cpu0
	sent := min(int(next.Load()), n)
	d.latencyMS, d.elapsedMS = d.latencyMS[:sent], d.elapsedMS[:sent]
	return d, nil
}

// post sends one request and reads the whole reply.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}
