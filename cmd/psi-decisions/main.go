// Command psi-decisions replays a JSONL decision log captured by the
// SmartPSI engine (psi-workload -decision-log, or any
// obs.DecisionLog) into model-quality reports: the model-α confusion
// matrix and vote-margin calibration, model-β plan ranks, prediction-
// cache staleness, and shadow-scoring regret — the records are folded
// through obs.ModelStats, the aggregate /modelz serves live, and
// printed with its renderer.
//
// Usage:
//
//	psi-decisions decisions.jsonl
//	psi-decisions -json decisions.jsonl
//	psi-decisions -refit -seed 7 decisions.jsonl
//
// With -refit the logged signature rows and ground-truth labels are
// used to re-fit a Random-Forest node-type classifier offline and score
// it on a holdout split — a quick check of how much headroom the online
// per-query model leaves on the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/ml"
	"repro/internal/obs"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	refit := flag.Bool("refit", false, "re-fit a forest on the logged features and score it on a holdout split")
	seed := flag.Int64("seed", 42, "refit split/training seed")
	trees := flag.Int("trees", 0, "refit forest size (0: library default)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psi-decisions [-json] [-refit] <decisions.jsonl>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *jsonOut, *refit, *seed, *trees, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psi-decisions:", err)
		os.Exit(1)
	}
}

func run(path string, jsonOut, refit bool, seed int64, trees int, w io.Writer) error {
	recs, err := obs.ReadDecisionLogFile(path)
	if err != nil {
		return err
	}
	var stats obs.ModelStats
	stats.Replay(recs)
	rep := report{ModelStatsData: stats.Snapshot(), Records: len(recs)}
	if refit {
		if rep.Refit, err = refitAlpha(recs, seed, trees, rep.AlphaAccuracy()); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if _, err := fmt.Fprintf(w, "decision log %s: %d records\n\n", path, rep.Records); err != nil {
		return err
	}
	if err := rep.WriteText(w); err != nil {
		return err
	}
	if r := rep.Refit; r != nil {
		_, err = fmt.Fprintf(w, "\nrefit: %d train / %d test rows, holdout accuracy %.4f (online %.4f)\n",
			r.TrainRows, r.TestRows, r.HoldoutAccuracy, r.OnlineAccuracy)
	}
	return err
}

// report is the analyzer's output: the /modelz document folded from the
// raw records, plus the offline refit.
type report struct {
	obs.ModelStatsData
	Records int          `json:"records"`
	Refit   *refitReport `json:"refit,omitempty"`
}

// refitReport scores a forest re-fit offline from the logged features.
type refitReport struct {
	TrainRows       int     `json:"train_rows"`
	TestRows        int     `json:"test_rows"`
	HoldoutAccuracy float64 `json:"holdout_accuracy"`
	OnlineAccuracy  float64 `json:"online_accuracy"`
}

// refitAlpha re-fits a node-type forest from the logged signature rows
// (mode and cache records carry Features + ground truth) and scores it
// on a 30% holdout; online is the logged model-α accuracy it is
// compared against.
func refitAlpha(recs []obs.DecisionRecord, seed int64, trees int, online float64) (*refitReport, error) {
	ds := ml.Dataset{NumClasses: 2}
	width := 0
	for i := range recs {
		r := &recs[i]
		if (r.Kind != obs.DecisionKindMode && r.Kind != obs.DecisionKindCache) || len(r.Features) == 0 {
			continue
		}
		if width == 0 {
			width = len(r.Features)
		}
		if len(r.Features) != width {
			continue // mixed graphs in one log: keep the first row shape
		}
		ds.X = append(ds.X, r.Features)
		ds.Y = append(ds.Y, boolIdx(r.ActualValid))
	}
	const minRows = 10
	if ds.Len() < minRows {
		return nil, fmt.Errorf("refit: only %d usable feature rows (need >= %d; was the log captured with a shadow rate > 0?)", ds.Len(), minRows)
	}
	rng := rand.New(rand.NewSource(seed))
	train, test := ds.Split(0.7, rng)
	cfg := ml.ForestConfig{Seed: seed, Trees: trees}
	forest, err := ml.TrainForest(train, cfg)
	if err != nil {
		return nil, fmt.Errorf("refit: %w", err)
	}
	cm := ml.Evaluate(forest, test)
	return &refitReport{
		TrainRows:       train.Len(),
		TestRows:        test.Len(),
		HoldoutAccuracy: cm.Accuracy(),
		OnlineAccuracy:  online,
	}, nil
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}
