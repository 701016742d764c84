package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const testGraph = `t # 0
v 0 A
v 1 B
v 2 C
v 3 C
v 4 B
v 5 A
e 0 1
e 0 2
e 0 3
e 0 4
e 1 2
e 1 3
e 4 2
e 4 3
e 5 4
e 5 2
`

// testConfig returns a config suitable for an in-process test server:
// ephemeral port, small pools, short drain.
func testConfig(graphPath string) config {
	return config{
		graphPath:      graphPath,
		addr:           "127.0.0.1:0",
		workers:        2,
		queue:          8,
		defaultTimeout: 2 * time.Second,
		maxTimeout:     5 * time.Second,
		maxBatch:       8,
		maxQueryNodes:  16,
		retryAfter:     time.Second,
		drainTimeout:   5 * time.Second,
		threads:        1,
		seed:           42,
		shardIndex:     -1, // flag default: unset
	}
}

// startRun launches run() in a goroutine and waits for the bound
// address. The returned cancel triggers the drain path; the returned
// channel yields run's error once it exits.
func startRun(t *testing.T, cfg config) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(cfg, ctx, ready) }()
	select {
	case addr := <-ready:
		return addr, cancel, errc
	case err := <-errc:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server did not become ready")
	}
	panic("unreachable")
}

// TestRunServesAndDrains boots the full binary path (graph load, engine
// build, listener, HTTP loop), runs one query end to end, and verifies
// that cancelling the parent context drains and exits cleanly.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(gp)
	cfg.addrFile = filepath.Join(dir, "addr")
	addr, cancel, errc := startRun(t, cfg)
	defer cancel()

	// The addr-file seam scripts rely on must hold the bound address.
	b, err := os.ReadFile(cfg.addrFile)
	if err != nil {
		t.Fatalf("addr-file: %v", err)
	}
	if string(b) != addr {
		t.Fatalf("addr-file = %q, bound = %q", b, addr)
	}

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	// Triangle A-B-C pivoted at A: nodes 0 and (by symmetry of the test
	// graph) 5 both close triangles with a B and a C neighbour.
	body := `{"query":{"nodes":[0,1,2],"edges":[[0,1],[1,2],[0,2]],"pivot":0},"timeout_ms":2000}`
	resp, err = http.Post(base+"/v1/psi", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("psi: %v", err)
	}
	var out struct {
		Bindings []int64 `json:"bindings"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("psi status = %d", resp.StatusCode)
	}
	if len(out.Bindings) == 0 {
		t.Fatal("no bindings for triangle query")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

// TestRunDataset covers the -dataset loading branch with a built-in
// generator instead of a file.
func TestRunDataset(t *testing.T) {
	cfg := testConfig("")
	cfg.dataset = "yeast"
	addr, cancel, errc := startRun(t, cfg)
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d", resp.StatusCode)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunErrors pins the clean failure modes: no input, a missing
// file, an unknown dataset, and an unbindable address.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(testConfig(""), ctx, nil); err == nil {
		t.Error("no -graph/-dataset accepted")
	}
	if err := run(testConfig(filepath.Join(t.TempDir(), "missing.lg")), ctx, nil); err == nil {
		t.Error("missing graph accepted")
	}
	cfg := testConfig("")
	cfg.dataset = "no-such-dataset"
	if err := run(cfg, ctx, nil); err == nil {
		t.Error("unknown dataset accepted")
	}

	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = testConfig(gp)
	cfg.addr = "256.256.256.256:0"
	if err := run(cfg, ctx, nil); err == nil {
		t.Error("unbindable address accepted")
	}
}

// TestRunCluster boots the -shards in-process scatter-gather mode and
// checks a query answers with per-shard outcomes plus shard health in
// /readyz.
func TestRunCluster(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(gp)
	cfg.shards = 2
	addr, cancel, errc := startRun(t, cfg)
	defer cancel()

	base := "http://" + addr
	body := `{"query":{"nodes":[0,1,2],"edges":[[0,1],[1,2],[0,2]],"pivot":0},"timeout_ms":2000}`
	resp, err := http.Post(base+"/v1/psi", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Bindings []int64 `json:"bindings"`
		Partial  bool    `json:"partial"`
		Shards   []struct {
			Shard int `json:"shard"`
		} `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("psi status = %d, err = %v", resp.StatusCode, err)
	}
	if len(out.Bindings) == 0 || out.Partial || len(out.Shards) != 2 {
		t.Fatalf("cluster answer: %+v", out)
	}

	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		ShardsHealthy int `json:"shards_healthy"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ready)
	_ = resp.Body.Close()
	if err != nil || ready.ShardsHealthy != 2 {
		t.Fatalf("readyz shards_healthy = %d, err = %v", ready.ShardsHealthy, err)
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunFleet boots two -shard-of nodes plus a -coordinator process
// in-process and runs a query through the whole scatter path.
func TestRunFleet(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	var addrs [2]string
	for i := 0; i < 2; i++ {
		cfg := testConfig(gp)
		cfg.shardOf = 2
		cfg.shardIndex = i
		addr, cancel, _ := startRun(t, cfg)
		defer cancel()
		addrs[i] = addr
	}
	ccfg := testConfig("")
	ccfg.coordinator = true
	ccfg.shardAddrs = addrs[0] + "," + addrs[1]
	ccfg.shardProbe = 50 * time.Millisecond
	caddr, ccancel, cerrc := startRun(t, ccfg)
	defer ccancel()

	body := `{"query":{"nodes":[0,1,2],"edges":[[0,1],[1,2],[0,2]],"pivot":0},"timeout_ms":2000}`
	resp, err := http.Post("http://"+caddr+"/v1/psi", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Bindings []int64 `json:"bindings"`
		Partial  bool    `json:"partial"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet psi status = %d, err = %v", resp.StatusCode, err)
	}
	if len(out.Bindings) == 0 || out.Partial {
		t.Fatalf("fleet answer: %+v", out)
	}
	ccancel()
	if err := <-cerrc; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
}

// TestRunShardFlagErrors pins the serving-mode flag validation.
func TestRunShardFlagErrors(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"shards+shard-of", func(c *config) { c.shards = 2; c.shardOf = 2; c.shardIndex = 0 }},
		{"shard-of without index", func(c *config) { c.shardOf = 2 }},
		{"index out of range", func(c *config) { c.shardOf = 2; c.shardIndex = 2 }},
		{"index without shard-of", func(c *config) { c.shardIndex = 0 }},
		{"coordinator without addrs", func(c *config) { c.graphPath = ""; c.coordinator = true }},
		{"coordinator with graph", func(c *config) { c.coordinator = true; c.shardAddrs = "127.0.0.1:1" }},
		{"addrs without coordinator", func(c *config) { c.shardAddrs = "127.0.0.1:1" }},
	}
	for _, tc := range cases {
		cfg := testConfig(gp)
		tc.mut(&cfg)
		if err := run(cfg, ctx, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunAddrFileError pins the atomic addr-file write failing when the
// destination directory does not exist.
func TestRunAddrFileError(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "g.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(gp)
	cfg.addrFile = filepath.Join(t.TempDir(), "no-such-dir", "addr")
	if err := run(cfg, context.Background(), nil); err == nil {
		t.Error("unwritable addr-file accepted")
	}
}
