package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObsBenchReportJSON checks the -json results document carries the
// schema version, the run configuration, and the final obs metrics
// snapshot under "metrics".
func TestObsBenchReportJSON(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	obs.PSIRecursions.Add(3)

	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeReport(path, buildReport("table1", true, 2, 7, 1500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("results JSON round-trip: %v\n%s", err, data)
	}
	if r.Schema != reportSchema {
		t.Errorf("schema = %d, want %d", r.Schema, reportSchema)
	}
	if r.Experiment != "table1" || !r.Quick || r.Scale != 2 || r.Seed != 7 {
		t.Errorf("config = %+v", r)
	}
	if r.ElapsedSeconds != 1.5 {
		t.Errorf("elapsed = %v, want 1.5", r.ElapsedSeconds)
	}
	if _, ok := r.Metrics.Counters["psi_recursions_total"]; !ok {
		t.Error(`"metrics" key missing psi_recursions_total counter`)
	}
	// The raw document must expose the snapshot under the "metrics" key
	// and the version under "schema".
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"metrics", "schema"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("document missing %q key; have %v", key, raw)
		}
	}
}
