package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph/graphtest"
	"repro/internal/shard"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

// faultyTransport forwards every request to the real transport, except
// a /v1/psi call to one of the faulty hosts, which gets the fault.
// /readyz always passes, so the prober keeps every shard in place and
// the fault reaches the scatter.
type faultyTransport struct {
	fault  string
	faulty map[string]bool // host:port
}

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !f.faulty[req.URL.Host] || req.URL.Path != "/v1/psi" {
		return http.DefaultTransport.RoundTrip(req)
	}
	switch f.fault {
	case "delay": // a wedged node: nothing comes back before the caller gives up
		<-req.Context().Done()
		return nil, req.Context().Err()
	case "reset":
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case "5xx":
		return faultReply(req, http.StatusBadGateway, []byte(`{"error":"bad gateway"}`)), nil
	case "504":
		return faultReply(req, http.StatusGatewayTimeout, []byte(`{"error":"query deadline exceeded"}`)), nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch f.fault {
	case "truncated":
		body = body[:len(body)/2]
	case "duplicate": // every binding twice
		var qr QueryResult
		if err := json.Unmarshal(body, &qr); err != nil {
			return nil, err
		}
		dup := make([]int64, 0, 2*len(qr.Bindings))
		for _, u := range qr.Bindings {
			dup = append(dup, u, u)
		}
		if len(dup) == 0 { // a shard with no bindings repeats node 0
			dup = []int64{0, 0}
		}
		qr.Bindings = dup
		if body, err = json.Marshal(qr); err != nil {
			return nil, err
		}
	}
	return faultReply(req, resp.StatusCode, body), nil
}

func faultReply(req *http.Request, status int, body []byte) *http.Response {
	return &http.Response{
		StatusCode: status, Status: http.StatusText(status), Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// TestCoordinatorTransportFaults injects transport faults between a
// coordinator and its two shard nodes through CoordinatorConfig.Client:
// a node that hangs past the deadline, a reset connection, truncated
// JSON, a 5xx, a 504 and a reply with every binding twice. One faulty
// shard beside a healthy one gives a 200 flagged partial whose bindings
// are the healthy shard's (a subset of the exact answer); both faulty
// give 504 when every shard timed out and 500 otherwise. Every case
// answers within the request deadline plus the 250 ms grace a wedged
// node is waited for.
//
// Not covered, because it is not detectable: a shard that answers with
// ascending node ids it does not own (another shard's bindings, or none
// at all) is merged as a clean answer. The coordinator holds no graph
// and no ownership map to check a node's answer against.
func TestCoordinatorTransportFaults(t *testing.T) {
	g := graphtest.Random(120, 360, 4, 51)
	ref, err := NewReference(g)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.ExtractQueries(g, 4, 1, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Bindings(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int64]bool{}
	for _, u := range want {
		exact[u] = true
	}
	addrs, hosts := make([]string, 2), make([]string, 2)
	for i := range addrs {
		node, err := shard.NewNode(g, shard.Options{Strategy: shard.LabelHash, Engine: smartpsi.Options{Threads: 1}}, 2, i)
		if err != nil {
			t.Fatal(err)
		}
		ns := httptest.NewServer(NewServer(node, Config{}).Handler())
		t.Cleanup(ns.Close)
		addrs[i], hosts[i] = ns.URL, strings.TrimPrefix(ns.URL, "http://")
	}

	const timeout = 2 * time.Second
	const grace = 250 * time.Millisecond
	for _, fault := range []string{"delay", "reset", "truncated", "5xx", "504", "duplicate"} {
		timesOut := fault == "delay" || fault == "504"
		for _, n := range []int{1, 2} {
			t.Run(fault+map[int]string{1: "/one-shard", 2: "/all-shards"}[n], func(t *testing.T) {
				tr := &faultyTransport{fault: fault, faulty: map[string]bool{}}
				for _, h := range hosts[2-n:] { // shard 1, or both
					tr.faulty[h] = true
				}
				coord, err := NewCoordinator(CoordinatorConfig{Addrs: addrs, Client: &http.Client{Transport: tr}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(coord.Close)
				ts := httptest.NewServer(NewServer(coord, Config{}).Handler())
				t.Cleanup(ts.Close)

				start := time.Now()
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/psi",
					PSIRequest{Query: ptrQueryJSON(QueryToJSON(qs[0])), TimeoutMS: timeout.Milliseconds()})
				if took := time.Since(start); took > timeout+grace {
					t.Errorf("answered after %v, past the %v deadline plus %v grace", took, timeout, grace)
				}
				if n == 2 {
					wantStatus := http.StatusInternalServerError
					if timesOut {
						wantStatus = http.StatusGatewayTimeout
					}
					if resp.StatusCode != wantStatus {
						t.Errorf("status %d, want %d: %s", resp.StatusCode, wantStatus, body)
					}
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, want 200 partial: %s", resp.StatusCode, body)
				}
				var qr QueryResult
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Fatal(err)
				}
				if !qr.Partial || len(qr.Shards) != 2 || qr.Shards[0].Error != "" || qr.Shards[0].TimedOut {
					t.Fatalf("partial %v, shard outcomes %+v; want shard 1's share missing", qr.Partial, qr.Shards)
				}
				if lost := qr.Shards[1]; lost.TimedOut != timesOut || (lost.Error != "") == timesOut {
					t.Errorf("shard 1 outcome %+v, want timed out: %v", lost, timesOut)
				}
				for _, u := range qr.Bindings {
					if !exact[u] {
						t.Errorf("binding %d is not in the exact answer %v", u, want)
					}
				}
			})
		}
	}
}
