package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

// Coordinator scatters queries across a fleet of psi-serve shard nodes
// over the normal HTTP wire format and gathers their owned bindings.
// It is an ordinary server evaluator — `psi-serve -coordinator
// -shard-addrs a,b,c` mounts it behind the same admission, metrics and
// drain machinery a single-engine server uses — plus the scatter
// extension, so responses carry the partial flag and per-shard
// outcomes, and a background prober feeds per-shard health into
// /readyz. The address list's order is the shard-index order: addrs[i]
// must be the node started with -shard-of len(addrs) -shard-index i, and
// the prober checks that it says so.
type Coordinator struct {
	addrs   []string
	client  *http.Client
	metrics []*obs.PerShard

	mu     sync.Mutex
	health []shard.Status
	// misplaced[i] is why shard i's answers are not merged: its last
	// /readyz row named another shard identity than position i of
	// len(addrs). Ownership is all that tells nodes apart, so a node in
	// the wrong place answers for the wrong candidates. "" when the row
	// agreed or no row has been read.
	misplaced []string

	probeEvery time.Duration
	stop       chan struct{}
	done       chan struct{}
}

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Addrs are the shard node base addresses in shard-index order
	// (host:port or full http:// URLs).
	Addrs []string
	// ProbeInterval is the /readyz health-probe period. Default 2s.
	ProbeInterval time.Duration
	// Client overrides the HTTP client (tests). Default: a plain client;
	// per-request deadlines come from the request contexts.
	Client *http.Client
}

// NewCoordinator validates the address list and starts the health
// prober. Call Close to stop it.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("server: coordinator needs at least one shard address")
	}
	c := &Coordinator{
		client:     cfg.Client,
		probeEvery: cfg.ProbeInterval,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.probeEvery <= 0 {
		c.probeEvery = 2 * time.Second
	}
	for i, a := range cfg.Addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("server: shard address %d is empty", i)
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		c.addrs = append(c.addrs, strings.TrimRight(a, "/"))
		c.metrics = append(c.metrics, obs.ShardMetrics(i))
	}
	c.health = make([]shard.Status, len(c.addrs))
	c.misplaced = make([]string, len(c.addrs))
	for i := range c.health {
		c.health[i] = shard.Status{Index: i, Of: len(c.addrs), Addr: c.addrs[i], Err: "not probed yet"}
	}
	obs.ShardCount.Set(int64(len(c.addrs)))
	//lint:ignore gojoin probeLoop closes c.done on exit and Close blocks on it; the join is cross-function
	go c.probeLoop()
	return c, nil
}

// Close stops the health prober.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
		<-c.done
	}
}

// ShardStatuses returns the prober's latest per-shard health rows.
func (c *Coordinator) ShardStatuses() []shard.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]shard.Status, len(c.health))
	copy(out, c.health)
	return out
}

// probeLoop polls every shard's /readyz, immediately once at startup
// and then on the configured period.
func (c *Coordinator) probeLoop() {
	defer close(c.done)
	c.probeAll()
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, misplaced := c.probeOne(i)
			c.mu.Lock()
			c.health[i], c.misplaced[i] = st, misplaced
			c.mu.Unlock()
		}(i)
	}
	wg.Wait()
}

// probeOne fetches one shard's /readyz. A ready shard node reports its
// own row: the coordinator adopts the node counts and checks the shard
// identity against the node's place in the address list. A row that
// disagrees makes the shard unhealthy, with the disagreement returned as
// misplaced too.
func (c *Coordinator) probeOne(i int) (st shard.Status, misplaced string) {
	st = shard.Status{Index: i, Of: len(c.addrs), Addr: c.addrs[i]}
	req, err := http.NewRequest(http.MethodGet, c.addrs[i]+"/readyz", nil)
	if err != nil {
		st.Err = err.Error()
		return st, ""
	}
	resp, err := c.client.Do(req)
	if err != nil {
		st.Err = err.Error()
		return st, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		st.Err = fmt.Sprintf("readyz status %d", resp.StatusCode)
		return st, ""
	}
	var ready struct {
		Shards []shard.Status `json:"shards"`
	}
	if err := json.Unmarshal(body, &ready); err != nil || len(ready.Shards) != 1 {
		st.Err = fmt.Sprintf("not a shard node: /readyz carries %d shard rows, want 1", len(ready.Shards))
		return st, st.Err
	}
	row := ready.Shards[0]
	if row.Index != i || row.Of != len(c.addrs) {
		st.Err = fmt.Sprintf("node says it is shard %d of %d, -shard-addrs places it as shard %d of %d", row.Index, row.Of, i, len(c.addrs))
		return st, st.Err
	}
	st.OwnedNodes, st.HaloNodes = row.OwnedNodes, row.HaloNodes
	st.Healthy = true
	return st, ""
}

// EvaluateTagged satisfies the Evaluator interface with the gather's
// merged result.
func (c *Coordinator) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*smartpsi.Result, error) {
	g, err := c.EvaluateScatter(q, deadline, requestID, fingerprint)
	if err != nil {
		return nil, err
	}
	return g.Res, nil
}

// EvaluateScatter POSTs the query to every shard node through
// shard.Scatter, so the fan-out, its metrics and its degradation
// semantics are the in-process Cluster's.
func (c *Coordinator) EvaluateScatter(q graph.Query, deadline time.Time, requestID, _ string) (*shard.Gather, error) {
	qj := QueryToJSON(q)
	label := q.G.Label(q.Pivot)
	return shard.Scatter(c.metrics, deadline, func(i int, d time.Time) (*smartpsi.Result, error) {
		return c.callShard(i, qj, label, d, requestID)
	})
}

// callShard runs one sub-query, whose pivot has label pivot, against
// shard i: a 200 is the shard's result; a 504, a budget under 1 ms or a
// transport timeout is psi.ErrDeadline; anything else is an error. A
// misplaced shard is not asked. Every binding has the pivot's label, so
// shard.Owner names the one shard that may answer it: a reply carrying
// a binding another shard owns is a bad shard response.
func (c *Coordinator) callShard(i int, qj QueryJSON, pivot graph.Label, deadline time.Time, requestID string) (*smartpsi.Result, error) {
	c.mu.Lock()
	misplaced := c.misplaced[i]
	c.mu.Unlock()
	if misplaced != "" {
		return nil, errors.New(misplaced)
	}
	body := PSIRequest{Query: &qj}
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			return nil, psi.ErrDeadline
		}
		body.TimeoutMS = ms
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.addrs[i]+"/v1/psi", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		// Forward the coordinator's request ID so one scattered query
		// correlates across every shard's log, trace and profile.
		req.Header.Set(requestIDHeader, requestID)
	}
	if !deadline.IsZero() {
		// The wire timeout stops the shard's evaluation; the request
		// context (with grace) stops waiting for a wedged node.
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(250*time.Millisecond))
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		// A *url.Error is a Timeout when its cause is: a net timeout or
		// the request context's deadline.
		if t, ok := err.(interface{ Timeout() bool }); ok && t.Timeout() {
			return nil, psi.ErrDeadline
		}
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGatewayTimeout:
		return nil, psi.ErrDeadline
	default:
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, errorMessage(raw))
	}
	var qr QueryResult
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, fmt.Errorf("bad shard response: %v", err)
	}
	res, err := resultFromJSON(&qr, len(qj.Nodes))
	if err != nil {
		return nil, err
	}
	for _, u := range res.Bindings {
		if o := shard.Owner(u, pivot, len(c.addrs)); o != i {
			return nil, fmt.Errorf("bad shard response: binding %d is shard %d's", u, o)
		}
	}
	return res, nil
}

// resultFromJSON lifts a shard node's wire result for a query of nodes
// nodes back into engine-result form for the shared merge: its bindings,
// UsedML and its counts whole, folded with Counts.Add. Per-shard times
// and profiles stay on their own nodes (the profile reachable there by
// the forwarded request ID). A reply no engine gives is an error, so the
// shard's share is missing and the answer partial: bindings not strictly
// ascending node ids, or more work rows than the query has plan depths.
func resultFromJSON(qr *QueryResult, nodes int) (*smartpsi.Result, error) {
	res := &smartpsi.Result{UsedML: qr.UsedML, Bindings: make([]graph.NodeID, len(qr.Bindings))}
	if qr.Counts != nil {
		if len(qr.Counts.Depths) > nodes {
			return nil, fmt.Errorf("bad shard response: %d work rows for a %d-node query", len(qr.Counts.Depths), nodes)
		}
		res.Counts.Add(qr.Counts)
	}
	for i, u := range qr.Bindings {
		res.Bindings[i] = graph.NodeID(u)
		if u < 0 || int64(res.Bindings[i]) != u || i > 0 && u <= qr.Bindings[i-1] {
			return nil, fmt.Errorf("bad shard response: binding %d at %d is not an ascending node id", u, i)
		}
	}
	return res, nil
}

// errorMessage extracts the error string from a JSON error body, or
// returns a truncated raw body.
func errorMessage(raw []byte) string {
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
