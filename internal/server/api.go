package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

// QueryJSON is the wire form of a pivoted query graph. Node IDs are the
// indices into Nodes; Edges entries are [src, dst] or [src, dst, label]
// pairs/triples (undirected, deduplicated by the builder); Pivot names
// the node whose bindings the query asks for.
type QueryJSON struct {
	// Nodes holds one label per query node; the node's ID is its index.
	Nodes []int64 `json:"nodes"`
	// Edges holds [src, dst] or [src, dst, label] entries.
	Edges [][]int64 `json:"edges"`
	// Pivot is the pivot node ID (an index into Nodes).
	Pivot int64 `json:"pivot"`
}

// PSIRequest is the body of POST /v1/psi. Exactly one of Query and
// QueryLG must be set.
type PSIRequest struct {
	// Query is the structured query form.
	Query *QueryJSON `json:"query,omitempty"`
	// QueryLG is the same query in LG text format ("v <id> <label>",
	// "e <src> <dst> [<label>]", "p <pivot>") — what cmd/psi-query and
	// the workload files use.
	QueryLG string `json:"query_lg,omitempty"`
	// TimeoutMS bounds the whole request (admission wait + evaluation);
	// 0 means the server's default, values above the server's maximum
	// are clamped. Negative values are rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResult is the success body of POST /v1/psi and the per-item
// payload of a batch response.
type QueryResult struct {
	// Bindings are the distinct data-graph nodes binding the pivot,
	// ascending.
	Bindings []int64 `json:"bindings"`
	// Candidates is the number of label-matching nodes examined.
	Candidates int `json:"candidates"`
	// UsedML reports whether the candidate set was large enough to train
	// the per-query models (false: pessimistic-heuristic fallback).
	UsedML bool `json:"used_ml"`
	// CacheHits / Filtered / Flips / Fallbacks / Recursions surface the
	// decision telemetry of one evaluation (see DESIGN.md §5b for the
	// mapping to paper concepts).
	CacheHits  int64 `json:"cache_hits"`
	Filtered   int64 `json:"filtered"`
	Flips      int64 `json:"flips"`
	Fallbacks  int64 `json:"fallbacks"`
	Recursions int64 `json:"recursions"`
	// ElapsedMS is the server-side evaluation wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Partial reports a degraded scatter-gather answer: at least one
	// shard's contribution is missing, so Bindings may be a strict
	// subset of the exact answer. Unsharded serving never sets it.
	Partial bool `json:"partial,omitempty"`
	// Shards carries the per-shard outcomes of a scattered evaluation
	// (sharded serving only).
	Shards []ShardOutcomeJSON `json:"shards,omitempty"`
	// Counts is every summable count of the evaluation, under
	// smartpsi.Counts' Go field names. Only a fleet shard node sets it,
	// for its coordinator, which sums the nodes' counts as the
	// in-process gather sums its shards' (and its /queryz reads them).
	Counts *smartpsi.Counts `json:"counts,omitempty"`
}

// ShardOutcomeJSON is one shard's contribution to a scattered query.
type ShardOutcomeJSON struct {
	Shard     int     `json:"shard"`
	Bindings  int     `json:"bindings"`
	ElapsedMS float64 `json:"elapsed_ms"`
	TimedOut  bool    `json:"timed_out,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/psi/batch: up to MaxBatch
// structured queries scheduled across the worker pool under one shared
// deadline.
type BatchRequest struct {
	Queries   []QueryJSON `json:"queries"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// BatchItem is one query's outcome inside a batch response. Status
// carries the HTTP status the query would have received standalone
// (200, 429, 500, 504); Result is set on 200, Error otherwise.
type BatchItem struct {
	Status int          `json:"status"`
	Result *QueryResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/psi/batch. The HTTP status is
// 200 whenever the batch itself was accepted; per-query failures are
// reported item by item (multi-status semantics).
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	Succeeded int         `json:"succeeded"`
	Failed    int         `json:"failed"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// httpError is an error carrying the HTTP status it should produce.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeJSON decodes r's body into v, mapping size and syntax problems
// to 400/413 httpErrors. The body is already wrapped by MaxBytesReader.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	// Trailing garbage after the document is a malformed request too.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// buildQuery converts one wire query into a validated graph.Query,
// enforcing the server's size cap. All failures are 4xx httpErrors.
func (s *Server) buildQuery(qj *QueryJSON, lg string) (graph.Query, error) {
	var q graph.Query
	switch {
	case qj != nil && lg != "":
		return q, badRequest("set exactly one of query and query_lg, not both")
	case qj == nil && lg == "":
		return q, badRequest("missing query: set query (structured) or query_lg (LG text)")
	case qj != nil:
		var err error
		q, err = queryFromJSON(qj)
		if err != nil {
			return q, err
		}
	default:
		parsed, err := graph.ParseQueryLG(strings.NewReader(lg))
		if err != nil {
			return q, badRequest("query_lg: %v", err)
		}
		q = parsed
	}
	if n := q.G.NumNodes(); n > s.cfg.MaxQueryNodes {
		return q, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("query has %d nodes, server cap is %d", n, s.cfg.MaxQueryNodes)}
	}
	if err := q.Validate(); err != nil {
		return q, badRequest("invalid query: %v", err)
	}
	// Reject label alphabets the data graph cannot satisfy up front:
	// the engine would error anyway, and here it is a client error.
	if g := s.graph; g != nil && q.G.NumLabels() > g.NumLabels() {
		return q, badRequest("query uses %d labels, data graph only has %d",
			q.G.NumLabels(), g.NumLabels())
	}
	return q, nil
}

// QueryToJSON projects a validated graph.Query into the wire form —
// the inverse of the request decoder, used by cmd/psi-loadgen and the
// test suite to ship workload-extracted queries to a server.
func QueryToJSON(q graph.Query) QueryJSON {
	qj := QueryJSON{Pivot: int64(q.Pivot)}
	labeled := q.G.HasEdgeLabels()
	for u := graph.NodeID(0); int(u) < q.G.NumNodes(); u++ {
		qj.Nodes = append(qj.Nodes, int64(q.G.Label(u)))
		for i, v := range q.G.Neighbors(u) {
			if u >= v {
				continue
			}
			if labeled {
				if l := q.G.EdgeLabelAt(u, i); l != graph.NoLabel {
					qj.Edges = append(qj.Edges, []int64{int64(u), int64(v), int64(l)})
					continue
				}
			}
			qj.Edges = append(qj.Edges, []int64{int64(u), int64(v)})
		}
	}
	return qj
}

// queryFromJSON builds a graph.Query from the structured wire form.
func queryFromJSON(qj *QueryJSON) (graph.Query, error) {
	var q graph.Query
	n := len(qj.Nodes)
	if n == 0 {
		return q, badRequest("query.nodes is empty")
	}
	b := graph.NewBuilder(n, len(qj.Edges))
	for i, l := range qj.Nodes {
		if l < 0 {
			return q, badRequest("query.nodes[%d]: negative label %d", i, l)
		}
		b.AddNode(graph.Label(l))
	}
	for i, e := range qj.Edges {
		if len(e) != 2 && len(e) != 3 {
			return q, badRequest("query.edges[%d]: want [src,dst] or [src,dst,label], got %d elements", i, len(e))
		}
		src, dst := e[0], e[1]
		if src < 0 || src >= int64(n) || dst < 0 || dst >= int64(n) {
			return q, badRequest("query.edges[%d]: endpoint out of range [0,%d)", i, n)
		}
		label := graph.NoLabel
		if len(e) == 3 {
			if e[2] < 0 {
				return q, badRequest("query.edges[%d]: negative edge label %d", i, e[2])
			}
			label = graph.Label(e[2])
		}
		if err := b.AddLabeledEdge(graph.NodeID(src), graph.NodeID(dst), label); err != nil {
			return q, badRequest("query.edges[%d]: %v", i, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return q, badRequest("query graph: %v", err)
	}
	if qj.Pivot < 0 || qj.Pivot >= int64(n) {
		return q, badRequest("query.pivot %d out of range [0,%d)", qj.Pivot, n)
	}
	q, err = graph.NewQuery(g, graph.NodeID(qj.Pivot))
	if err != nil {
		return q, badRequest("query: %v", err)
	}
	return q, nil
}

// resultJSON projects an evaluation into the wire form: the merged
// engine result plus the gather's degradation detail. A lone engine's
// gather has no outcomes and leaves both wire fields empty. counts adds
// the result's Counts whole, for a fleet coordinator.
func resultJSON(gth *shard.Gather, elapsed time.Duration, counts bool) *QueryResult {
	res := gth.Res
	qr := &QueryResult{
		Bindings:   make([]int64, len(res.Bindings)),
		Candidates: res.Candidates,
		UsedML:     res.UsedML,
		CacheHits:  res.CacheHits,
		Filtered:   res.Filtered,
		Flips:      res.Flips,
		Fallbacks:  res.Fallbacks,
		Recursions: res.Work().Recursions,
		ElapsedMS:  float64(elapsed.Nanoseconds()) / 1e6,
		Partial:    gth.Partial,
	}
	if counts {
		qr.Counts = &res.Counts
	}
	for i, u := range res.Bindings {
		qr.Bindings[i] = int64(u)
	}
	for _, o := range gth.Outcomes {
		qr.Shards = append(qr.Shards, ShardOutcomeJSON{
			Shard:     o.Shard,
			Bindings:  o.Bindings,
			ElapsedMS: float64(o.Elapsed.Nanoseconds()) / 1e6,
			TimedOut:  o.TimedOut,
			Error:     o.Err,
		})
	}
	return qr
}

// writeJSON writes v with the given status. Encode errors mean the
// client went away; there is nothing useful to do with them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}
