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
// debug mux: an availability alert driven to firing by sheds, and one
// slow profile carrying its request ID and model-β tally.
func makeBundle(t *testing.T) string {
	t.Helper()
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })

	reg := obs.NewRegistry()
	req := reg.Counter("server_queries_total", "queries")
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
		BetaScored:    12,
		BetaTop1:      9,
		DurationNanos: (25 * time.Millisecond).Nanoseconds(),
	})

	b, err := obs.NewBundler(obs.BundlerConfig{Alerts: set})
	if err != nil {
		t.Fatal(err)
	}
	obs.Handler(reg, rec, obs.HandlerConfig{Alerts: set, Bundler: b})
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
	path := makeBundle(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"report", path}, &out, &errOut); code != 0 {
		t.Fatalf("report exit = %d, stderr:\n%s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"reason alert", "objective availability", // manifest header
		"1 firing", "availability", // the /alertz table
		"fast-window bad: server_shed_total=50", // the counter that burned
		"q-slow", "req-42", "β top-1 9/12",      // slow profile with its request ID and β tally
		"funnel generated 20 > deg-ok 15 > sig-ok 10 > recursed 8 > matched 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

func TestReportJSON(t *testing.T) {
	path := makeBundle(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"report", "-json", path}, &out, &errOut); code != 0 {
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
	if bad := rep.Alerts.Alerts[0].BadFast; bad["server_shed_total"] != 50 {
		t.Errorf("availability breakdown = %v, want server_shed_total 50", bad)
	}
	if len(rep.Slowest) != 1 {
		t.Fatalf("slowest = %+v, want the one profile", rep.Slowest)
	}
	if p := rep.Slowest[0]; p.RequestID != "req-42" || p.BetaTop1 != 9 || p.BetaScored != 12 {
		t.Errorf("slowest = %+v, want req-42 with β 9/12", p)
	}
}

func TestCorruptBundleExit2(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.zip")
	if err := os.WriteFile(garbage, []byte("this is not a zip archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := makeBundle(t)
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
	path := makeBundle(t)
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
