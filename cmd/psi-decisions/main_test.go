package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/obs"
)

// captureLog runs a fully-audited workload through the SmartPSI engine
// and returns the path of the decision log it wrote plus the engine's
// own shadow counters — the ground truth the offline analyzer must
// reproduce.
func captureLog(t *testing.T) (string, *repro.Result) {
	t.Helper()
	const n, m = 300, 900
	rng := rand.New(rand.NewSource(11))
	b := repro.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(repro.Label(i % 3))
	}
	for b.NumEdges() < m {
		u, v := repro.NodeID(rng.Intn(n)), repro.NodeID(rng.Intn(n))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	queries, err := repro.ExtractQueries(g, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	dlog, err := obs.CreateDecisionLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{
		Seed:           5,
		MinTrainNodes:  10,
		MaxTrainNodes:  20,
		PlanSamples:    2,
		ShadowRate:     1,
		PlanShadowRate: 1,
		DecisionLog:    dlog,
	}
	engine, err := repro.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := &repro.Result{}
	for i, q := range queries {
		res, err := engine.Evaluate(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		total.ShadowModeRuns += res.ShadowModeRuns
		total.ShadowPlanRuns += res.ShadowPlanRuns
		total.CacheChecks += res.CacheChecks
		total.CacheStale += res.CacheStale
	}
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	if dlog.Dropped() != 0 {
		t.Fatalf("decision log dropped %d records", dlog.Dropped())
	}
	if total.ShadowModeRuns == 0 {
		t.Fatal("fixture produced no shadow mode runs; enlarge the workload")
	}
	return path, total
}

// TestDecisionLogRoundTrip is the schema round-trip guard: a log the
// engine wrote must parse back and fold, through obs.ModelStats, into
// the exact quantities the engine reported — audit counts matching the
// engine's shadow counters, and a confusion matrix identical to an
// independent fold of the raw records.
func TestDecisionLogRoundTrip(t *testing.T) {
	path, total := captureLog(t)

	var text bytes.Buffer
	if err := run(path, false, false, 0, 0, &text); err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := run(path, true, false, 0, 0, &jsonBuf); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(jsonBuf.Bytes(), &rep); err != nil {
		t.Fatalf("-json output: %v", err)
	}

	if rep.ModeRegret.Runs != total.ShadowModeRuns {
		t.Errorf("mode regret runs = %d, engine reported %d shadow mode runs", rep.ModeRegret.Runs, total.ShadowModeRuns)
	}
	if rep.PlanRegret.Runs != total.ShadowPlanRuns {
		t.Errorf("plan regret runs = %d, engine reported %d shadow plan runs", rep.PlanRegret.Runs, total.ShadowPlanRuns)
	}
	if rep.CacheChecks != total.CacheChecks || rep.CacheStale != total.CacheStale {
		t.Errorf("cache checks/stale = %d/%d, engine reported %d/%d",
			rep.CacheChecks, rep.CacheStale, total.CacheChecks, total.CacheStale)
	}

	// Independent fold of the raw records: the analyzer's confusion
	// matrix must match cell for cell.
	f, err := obs.ReadDecisionLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [2][2]int64
	var calN int64
	for i := range f {
		r := &f[i]
		if r.Kind != obs.DecisionKindMode {
			continue
		}
		want[boolIdx(r.ActualValid)][boolIdx(r.PredValid())]++
		calN++
	}
	if rep.Alpha != want {
		t.Errorf("analyzer confusion matrix %v != independent fold %v", rep.Alpha, want)
	}
	var gotCalN int64
	for _, b := range rep.Calibration {
		gotCalN += b.N
	}
	if gotCalN != calN {
		t.Errorf("calibration buckets hold %d observations, want %d (every mode record lands in one bucket)", gotCalN, calN)
	}

	if rep.Records != len(f) || len(rep.Recent) != 0 {
		t.Errorf("records = %d (recent %d), want %d and none retained", rep.Records, len(rep.Recent), len(f))
	}

	// Determinism: replaying the same log twice is bit-identical.
	var a, b obs.ModelStats
	a.Replay(f)
	b.Replay(f)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Error("Replay is not deterministic over the same records")
	}

	// The text rendering carries the headline quantities.
	for _, wantSub := range []string{"confusion matrix", "vote-margin calibration", "shadow mode", "shadow plan", "prediction-cache quality"} {
		if !strings.Contains(text.String(), wantSub) {
			t.Errorf("text report missing %q:\n%s", wantSub, text.String())
		}
	}
}

// TestDecisionLogRefit exercises the offline -refit path on an
// engine-written log: the logged signature rows must be trainable and
// the holdout split accounted for.
func TestDecisionLogRefit(t *testing.T) {
	path, _ := captureLog(t)
	var buf bytes.Buffer
	if err := run(path, true, true, 7, 10, &buf); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Refit == nil {
		t.Fatal("-refit produced no refit report")
	}
	if rep.Refit.TrainRows == 0 || rep.Refit.TestRows == 0 {
		t.Errorf("refit split = %d/%d train/test rows, want both nonzero", rep.Refit.TrainRows, rep.Refit.TestRows)
	}
	if a := rep.Refit.HoldoutAccuracy; a < 0 || a > 1 {
		t.Errorf("holdout accuracy %v outside [0,1]", a)
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.jsonl"), false, false, 0, 0, &bytes.Buffer{}); err == nil {
		t.Error("missing log file accepted")
	}
}
