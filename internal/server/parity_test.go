package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

// scriptedEval answers every query with one scripted outcome, through
// the scatter extension so a script can also return a partial gather.
type scriptedEval func() (*shard.Gather, error)

func (f scriptedEval) EvaluateTagged(graph.Query, time.Time, string, string) (*smartpsi.Result, error) {
	g, err := f()
	if err != nil {
		return nil, err
	}
	return g.Res, nil
}

func (f scriptedEval) EvaluateScatter(graph.Query, time.Time, string, string) (*shard.Gather, error) {
	return f()
}

// routeAnswer is everything serveQuery decides for one query, as seen
// from outside one route.
type routeAnswer struct {
	status   int
	errText  string
	result   *QueryResult
	counters map[string]int64    // nonzero server_* counter deltas
	outcome  obs.ShapeAggregates // OK/Shed/Deadline/Errors of the query's shape
}

// TestServeRouteParity drives each terminal outcome of a served query
// through /v1/psi and through a one-item /v1/psi/batch and requires the
// two routes to agree on status, error text, server_* counter deltas and
// workload-sketch outcome: both are serveQuery plus an envelope.
func TestServeRouteParity(t *testing.T) {
	full := func() (*shard.Gather, error) {
		return &shard.Gather{Res: &smartpsi.Result{Bindings: []graph.NodeID{4, 9}, Candidates: 7}}, nil
	}
	fails := func(err error) scriptedEval {
		return func() (*shard.Gather, error) { return nil, err }
	}
	cases := []struct {
		name      string
		eval      scriptedEval
		cfg       Config
		slotTaken bool  // the one worker slot is busy when the query arrives
		timeoutMS int64 // 0: server default
		status    int
		errText   string
		counter   string // the server_* counter this outcome raises, if any
		outcome   string
	}{
		{name: "ok", eval: full, status: http.StatusOK, outcome: obs.WorkloadOutcomeOK},
		{name: "shed", eval: full, cfg: Config{Workers: 1, ShedImmediately: true}, slotTaken: true,
			status: http.StatusTooManyRequests, errText: "overloaded", counter: "server_shed_total", outcome: obs.WorkloadOutcomeShed},
		{name: "deadline-while-queued", eval: full, cfg: Config{Workers: 1, QueueDepth: 1}, slotTaken: true, timeoutMS: 20,
			status: http.StatusGatewayTimeout, errText: "queued for admission", counter: "server_deadline_hits_total", outcome: obs.WorkloadOutcomeDeadline},
		{name: "evaluation-deadline", eval: fails(psi.ErrDeadline),
			status: http.StatusGatewayTimeout, errText: "query deadline exceeded", counter: "server_deadline_hits_total", outcome: obs.WorkloadOutcomeDeadline},
		{name: "panic", eval: func() (*shard.Gather, error) { panic("scripted") },
			status: http.StatusInternalServerError, errText: "internal error", counter: "server_panics_total", outcome: obs.WorkloadOutcomeError},
		{name: "generic-error", eval: fails(errors.New("boom")),
			status: http.StatusInternalServerError, errText: "evaluation failed: boom", outcome: obs.WorkloadOutcomeError},
		{name: "partial-gather", eval: func() (*shard.Gather, error) {
			g, _ := full()
			g.Partial = true
			g.Outcomes = []shard.Outcome{{Shard: 0, Bindings: 2}, {Shard: 1, TimedOut: true}}
			return g, nil
		}, status: http.StatusOK, counter: "server_partial_total", outcome: obs.WorkloadOutcomeOK},
	}

	serverCounters := func() map[string]int64 {
		out := map[string]int64{}
		for name, v := range obs.Default.Snapshot().Counters {
			// server_batch_queries_total counts batch items: the one
			// counter that is about the envelope, not the query.
			if strings.HasPrefix(name, "server_") && name != "server_batch_queries_total" {
				out[name] = v
			}
		}
		return out
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drive := func(batch bool) routeAnswer {
				cfg := tc.cfg
				cfg.Workload = obs.NewWorkload(4)
				s, ts := newTestServer(t, tc.eval, cfg)
				if tc.slotTaken {
					if err := s.adm.acquire(context.Background()); err != nil {
						t.Fatal(err)
					}
					defer s.adm.release()
				}
				before := serverCounters()
				var ans routeAnswer
				if batch {
					resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi/batch",
						BatchRequest{Queries: []QueryJSON{*triangleQuery()}, TimeoutMS: tc.timeoutMS})
					var br BatchResponse
					if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
						t.Fatalf("batch envelope = %d %s (%v)", resp.StatusCode, body, err)
					}
					ans.status, ans.errText, ans.result = br.Results[0].Status, br.Results[0].Error, br.Results[0].Result
				} else {
					resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
						PSIRequest{Query: triangleQuery(), TimeoutMS: tc.timeoutMS})
					ans.status = resp.StatusCode
					if resp.StatusCode == http.StatusOK {
						ans.result = new(QueryResult)
						if err := json.Unmarshal(body, ans.result); err != nil {
							t.Fatalf("result body %s: %v", body, err)
						}
					} else {
						var eb ErrorBody
						if err := json.Unmarshal(body, &eb); err != nil {
							t.Fatalf("error body %s: %v", body, err)
						}
						ans.errText = eb.Error
					}
				}
				ans.counters = map[string]int64{}
				for name, v := range serverCounters() {
					if d := v - before[name]; d != 0 {
						ans.counters[name] = d
					}
				}
				if shapes := cfg.Workload.Snapshot().Shapes; len(shapes) == 1 {
					tot := shapes[0].Totals
					ans.outcome = obs.ShapeAggregates{OK: tot.OK, Shed: tot.Shed, Deadline: tot.Deadline, Errors: tot.Errors}
				} else {
					t.Errorf("sketch tracks %d shapes after one query, want 1", len(shapes))
				}
				return ans
			}

			single, batch := drive(false), drive(true)

			// The single route is what the table describes...
			if single.status != tc.status || !strings.Contains(single.errText, tc.errText) {
				t.Errorf("/v1/psi = %d %q, want %d with %q", single.status, single.errText, tc.status, tc.errText)
			}
			wantCounters := map[string]int64{"server_requests_total": 1}
			if tc.counter != "" {
				wantCounters[tc.counter] = 1
			}
			if !reflect.DeepEqual(single.counters, wantCounters) {
				t.Errorf("/v1/psi server_* deltas = %v, want %v", single.counters, wantCounters)
			}
			wantOutcome := map[string]obs.ShapeAggregates{
				obs.WorkloadOutcomeOK:       {OK: 1},
				obs.WorkloadOutcomeShed:     {Shed: 1},
				obs.WorkloadOutcomeDeadline: {Deadline: 1},
				obs.WorkloadOutcomeError:    {Errors: 1},
			}[tc.outcome]
			if single.outcome != wantOutcome {
				t.Errorf("/v1/psi sketch outcome = %+v, want %s", single.outcome, tc.outcome)
			}

			// ...and the batch item is the same answer.
			if batch.status != single.status || batch.errText != single.errText {
				t.Errorf("batch item = %d %q, /v1/psi = %d %q", batch.status, batch.errText, single.status, single.errText)
			}
			if !reflect.DeepEqual(batch.counters, single.counters) {
				t.Errorf("server_* deltas differ: batch %v, /v1/psi %v", batch.counters, single.counters)
			}
			if batch.outcome != single.outcome {
				t.Errorf("sketch outcomes differ: batch %+v, /v1/psi %+v", batch.outcome, single.outcome)
			}
			if (batch.result == nil) != (single.result == nil) {
				t.Fatalf("results differ: batch %+v, /v1/psi %+v", batch.result, single.result)
			}
			if single.result != nil {
				b, s := *batch.result, *single.result
				b.ElapsedMS, s.ElapsedMS = 0, 0
				if !reflect.DeepEqual(b, s) {
					t.Errorf("results differ: batch %+v, /v1/psi %+v", b, s)
				}
			}
		})
	}
}
