package main

import (
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

func TestParseSizes(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		ok     bool
	}{
		{"5", 5, 5, true},
		{"4-10", 4, 10, true},
		{"x", 0, 0, false},
		{"4-x", 0, 0, false},
		{"x-4", 0, 0, false},
		{"0", 0, 0, false},
		{"7-3", 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, err := parseSizes(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseSizes(%q): err = %v", c.in, err)
			continue
		}
		if c.ok && (lo != c.lo || hi != c.hi) {
			t.Errorf("parseSizes(%q) = %d-%d, want %d-%d", c.in, lo, hi, c.lo, c.hi)
		}
	}
}

func TestRunExtractsWorkload(t *testing.T) {
	dir := t.TempDir()
	// A small but connected graph file.
	gp := filepath.Join(dir, "g.lg")
	content := "t # 0\n"
	for i := 0; i < 30; i++ {
		content += "v " + itoa(i) + " L" + itoa(i%3) + "\n"
	}
	for i := 0; i < 29; i++ {
		content += "e " + itoa(i) + " " + itoa(i+1) + "\n"
	}
	for i := 0; i < 15; i++ {
		content += "e " + itoa(i) + " " + itoa(i+15) + "\n"
	}
	if err := os.WriteFile(gp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "q.lg")
	if err := run(gp, "", "3-4", 5, 1, out, false, 1, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	qs, err := graph.ParseQuerySetLG(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Errorf("extracted %d queries, want 10", len(qs))
	}
	// Error paths.
	if err := run("", "", "3", 1, 1, "", false, 1, io.Discard); err == nil {
		t.Error("missing inputs accepted")
	}
	if err := run(gp, "", "bogus", 1, 1, "", false, 1, io.Discard); err == nil {
		t.Error("bogus sizes accepted")
	}
}

// TestObsWorkloadDebugServerAcceptance mirrors the manual acceptance
// flow: start the debug server, evaluate an extracted workload with
// SmartPSI, and scrape /metrics expecting the headline counters.
func TestObsWorkloadDebugServerAcceptance(t *testing.T) {
	prevEnabled := obs.Enabled()
	defer obs.Enable(prevEnabled)

	dir := t.TempDir()
	gp := filepath.Join(dir, "g.lg")
	content := "t # 0\n"
	for i := 0; i < 60; i++ {
		content += "v " + itoa(i) + " L" + itoa(i%3) + "\n"
	}
	for i := 0; i < 59; i++ {
		content += "e " + itoa(i) + " " + itoa(i+1) + "\n"
	}
	for i := 0; i < 30; i += 2 {
		content += "e " + itoa(i) + " " + itoa(i+30) + "\n"
	}
	if err := os.WriteFile(gp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	addr, closeFn, err := obs.StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := closeFn(); err != nil {
			t.Errorf("close debug server: %v", err)
		}
	}()

	out := filepath.Join(dir, "q.lg")
	if err := run(gp, "", "3-4", 4, 1, out, true, 2, io.Discard); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every headline metric from the acceptance checklist must be
	// exported; the work counters must additionally be non-zero after a
	// real evaluation pass.
	for _, name := range []string{
		"psi_recursions_total",
		"psi_sig_prunes_total",
		"smartpsi_cache_hits_total",
		"smartpsi_recoveries_total",
		"smartpsi_mode_mispredictions_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	for _, name := range []string{"psi_recursions_total", "smartpsi_queries_total"} {
		if v := metricValue(t, text, name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
}

// TestObsWorkloadModelzReport runs -evaluate with collection on (as
// PSI_OBS does) on a graph large enough for the ML path: stderr ends
// with the /modelz report the run folded, model α's matrix and model β's
// top-1 share both scored. With collection off, no report is printed.
func TestObsWorkloadModelzReport(t *testing.T) {
	prevEnabled := obs.Enabled()
	defer obs.Enable(prevEnabled)
	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()

	// 300 nodes over 3 labels: 100 candidates per pivot label, above the
	// engine's 64-candidate training threshold.
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.lg")
	const n = 300
	var content strings.Builder
	content.WriteString("t # 0\n")
	for i := 0; i < n; i++ {
		content.WriteString("v " + itoa(i) + " L" + itoa(i%3) + "\n")
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[[2]int]bool{}
	for len(seen) < 3*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		content.WriteString("e " + itoa(u) + " " + itoa(v) + "\n")
	}
	if err := os.WriteFile(gp, []byte(content.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "q.lg")
	evaluate := func(collect bool) string {
		obs.Enable(collect)
		var stderr strings.Builder
		if err := run(gp, "", "3", 4, 1, out, true, 1, &stderr); err != nil {
			t.Fatal(err)
		}
		return stderr.String()
	}
	if text := evaluate(false); strings.Contains(text, "model α") {
		t.Errorf("collection off, but stderr has a /modelz report:\n%s", text)
	}
	text := evaluate(true)
	m := regexp.MustCompile(`model α \(node type, §4\.2\) — confusion matrix, (\d+) scored predictions`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		t.Errorf("/modelz report scored no model-α predictions:\n%s", text)
	}
	m = regexp.MustCompile(`predicted plan vs training sweeps: (\d+) observed, top-1 [01]\.\d{3}`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		t.Errorf("/modelz report scored no model-β predictions:\n%s", text)
	}
}

// metricValue extracts a counter's value from Prometheus text output.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (-?\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics output", name)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
