package main

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// makeBundle assembles a realistic incident bundle on disk through the
// debug mux: an availability alert driven to firing, one slow profile
// and a recent /modelz decision record sharing its request ID
// (correlated unless withCorrelation is false).
func makeBundle(t *testing.T, withCorrelation bool) string {
	t.Helper()
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })

	reg := obs.NewRegistry()
	req := reg.Counter("server_requests_total", "requests")
	shed := reg.Counter("server_shed_total", "sheds")
	s := obs.NewSampler(reg, time.Second)
	set := obs.NewSLOSet(s, []obs.Objective{
		obs.AvailabilityObjective(0.9, 2*time.Second, 5*time.Second, 2, 0),
	})
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.SampleAt(base)
	req.Add(100)
	shed.Add(50)
	s.SampleAt(base.Add(time.Second)) // availability fires

	rec := obs.NewRecorder(4)
	rec.Start("q-slow", "req-42", "").Seal(obs.ProfileData{
		Method:        "pessimistic",
		Funnel:        []obs.FunnelDepth{{Generated: 20, DegOK: 15, SigOK: 10, Recursed: 8, Matched: 2}},
		Bindings:      2,
		DurationNanos: (25 * time.Millisecond).Nanoseconds(),
	})

	obs.DefaultModelStats.Reset()
	t.Cleanup(obs.DefaultModelStats.Reset)
	reqID := "req-42"
	if !withCorrelation {
		reqID = ""
	}
	obs.DefaultModelStats.Observe(obs.DecisionRecord{Kind: obs.DecisionKindBeta, Query: "q-slow", RequestID: reqID, Node: 7})

	b, err := obs.NewBundler(obs.BundlerConfig{Alerts: set})
	if err != nil {
		t.Fatal(err)
	}
	obs.Handler(reg, rec, obs.WithSampler(s), obs.WithAlerts(set), obs.WithBundler(b))
	var buf bytes.Buffer
	if _, err := b.WriteBundle(&buf, obs.BundleReasonAlert, "availability"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.zip")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportText(t *testing.T) {
	path := makeBundle(t, true)
	var out, errOut bytes.Buffer
	if code := run([]string{"report", path}, &out, &errOut); code != 0 {
		t.Fatalf("report exit = %d, stderr:\n%s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"reason alert", "objective availability", // manifest header
		"1 firing", "availability", // the /alertz table
		"server_requests_total", // sparkline
		"q-slow", "req-42",      // slow profile with its request ID
		"funnel generated 20 > deg-ok 15 > sig-ok 10 > recursed 8 > matched 2",
		"correlated request IDs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

func TestReportJSON(t *testing.T) {
	path := makeBundle(t, true)
	var out, errOut bytes.Buffer
	if code := run([]string{"report", "-json", "-require-correlation", path}, &out, &errOut); code != 0 {
		t.Fatalf("report -json exit = %d, stderr:\n%s", code, errOut.String())
	}
	var rep reportDoc
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report -json is not JSON: %v\n%s", err, out.String())
	}
	if rep.Alerts.Firing != 1 || rep.Alerts.Alerts[0].Name != "availability" {
		t.Errorf("alerts = %+v, want availability firing", rep.Alerts)
	}
	if rep.Bundle.Reason != obs.BundleReasonAlert {
		t.Errorf("manifest reason = %q, want alert", rep.Bundle.Reason)
	}
	if len(rep.Correlated) != 1 || rep.Correlated[0] != "req-42" {
		t.Errorf("correlated = %v, want req-42 (profile + recent decision)", rep.Correlated)
	}
	if rep.Decisions.Records != 1 || rep.Decisions.Kinds[obs.DecisionKindBeta] != 1 {
		t.Errorf("decisions = %+v, want the one beta record from modelz.json", rep.Decisions)
	}
}

func TestRequireCorrelationFails(t *testing.T) {
	path := makeBundle(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"report", "-require-correlation", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 when no ID spans a profile and the recent decisions", code)
	}
	if !strings.Contains(errOut.String(), "require-correlation") {
		t.Errorf("stderr does not name the failed assertion:\n%s", errOut.String())
	}
}

func TestCorruptBundleExit2(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.zip")
	if err := os.WriteFile(garbage, []byte("this is not a zip archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := makeBundle(t, true)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.zip")
	if err := os.WriteFile(truncated, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// A schema-1 bundle (it carried decisions.jsonl and access.jsonl).
	var old bytes.Buffer
	zw := zip.NewWriter(&old)
	f, err := zw.Create(obs.ManifestEntry)
	if err == nil {
		_, err = f.Write([]byte(`{"schema": 1, "reason": "manual"}`))
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	oldSchema := filepath.Join(dir, "schema1.zip")
	if err := os.WriteFile(oldSchema, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, sub := range []string{"report", "list"} {
		for _, path := range []string{garbage, truncated, oldSchema, filepath.Join(dir, "missing.zip")} {
			var out, errOut bytes.Buffer
			if code := run([]string{sub, path}, &out, &errOut); code != 2 {
				t.Errorf("%s %s exit = %d, want 2\n%s", sub, filepath.Base(path), code, errOut.String())
			}
		}
	}
}

func TestListAndCat(t *testing.T) {
	path := makeBundle(t, true)
	var out, errOut bytes.Buffer
	if code := run([]string{"list", path}, &out, &errOut); code != 0 {
		t.Fatalf("list exit = %d\n%s", code, errOut.String())
	}
	for _, want := range []string{obs.ManifestEntry, obs.MetricsEntry, obs.AlertsEntry, obs.GoroutinesEntry} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list lacks %s:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"cat", path, obs.ManifestEntry}, &out, &errOut); code != 0 {
		t.Fatalf("cat exit = %d\n%s", code, errOut.String())
	}
	var man obs.BundleManifest
	if err := json.Unmarshal(out.Bytes(), &man); err != nil {
		t.Fatalf("cat manifest.json is not JSON: %v", err)
	}
	if man.Objective != "availability" {
		t.Errorf("manifest objective = %q, want availability", man.Objective)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"cat", path, "no-such-entry"}, &out, &errOut); code != 1 {
		t.Errorf("cat missing entry exit = %d, want 1", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 1 {
		t.Errorf("no args exit = %d, want 1", code)
	}
	if code := run([]string{"frobnicate"}, &out, &errOut); code != 1 {
		t.Errorf("unknown subcommand exit = %d, want 1", code)
	}
	if code := run([]string{"help"}, &out, &errOut); code != 0 {
		t.Errorf("help exit = %d, want 0", code)
	}
}

func TestSpark(t *testing.T) {
	if got := spark(nil); got != "" {
		t.Errorf("empty spark = %q", got)
	}
	if got := spark([]float64{-1, -1}); got != "" {
		t.Errorf("all-missing spark = %q", got)
	}
	got := spark([]float64{0, 1, -1, 2})
	want := "▁▄ █"
	if got != want {
		t.Errorf("spark = %q, want %q", got, want)
	}
	// A flat series renders at the low bar rather than dividing by zero.
	if got := spark([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Errorf("flat spark = %q", got)
	}
}
