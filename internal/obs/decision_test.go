package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCalibrationBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		margin float64
		want   int
	}{
		{-0.5, 0}, {0, 0}, {0.19, 0}, {0.2, 1}, {0.5, 2}, {0.99, 4}, {1, 4}, {1.5, 4},
	}
	for _, tc := range cases {
		if got := CalibrationBucketIndex(tc.margin); got != tc.want {
			t.Errorf("CalibrationBucketIndex(%v) = %d, want %d", tc.margin, got, tc.want)
		}
	}
}

// TestModelStatsSnapshot pins the aggregate arithmetic: confusion
// matrix cells, calibration buckets, rank histogram growth, regret
// split by kind, and the derived accuracy/top-k helpers.
func TestModelStatsSnapshot(t *testing.T) {
	var m ModelStats
	var cells AlphaCells
	cells.Score(true, true, 0.9)   // TP, bucket 4
	cells.Score(true, false, 0.1)  // FP, bucket 0
	cells.Score(false, false, 0.9) // TN, bucket 4
	m.AddAlpha(cells)
	m.Observe(DecisionRecord{Kind: DecisionKindBeta, Rank: 1}, false)
	m.Observe(DecisionRecord{Kind: DecisionKindBeta, Rank: 3}, false)
	m.Observe(DecisionRecord{Kind: DecisionKindMode, RegretNanos: 100}, false)
	m.Observe(DecisionRecord{Kind: DecisionKindPlan, RegretNanos: 300, ShadowTimeout: true}, true)
	m.ObserveShadowMismatch()

	d := m.Snapshot()
	if d.Alpha != [2][2]int64{{1, 1}, {0, 1}} {
		t.Errorf("alpha = %v, want [[1 1] [0 1]]", d.Alpha)
	}
	if got := d.AlphaAccuracy(); got != 2.0/3.0 {
		t.Errorf("accuracy = %v, want 2/3", got)
	}
	if d.Calibration[4].N != 2 || d.Calibration[4].Correct != 2 || d.Calibration[0].N != 1 || d.Calibration[0].Correct != 0 {
		t.Errorf("calibration = %v", d.Calibration)
	}
	if want := []int64{1, 0, 1}; fmt.Sprint(d.BetaRanks) != fmt.Sprint(want) {
		t.Errorf("betaRanks = %v, want %v", d.BetaRanks, want)
	}
	if d.BetaTopK(1) != 0.5 || d.BetaTopK(3) != 1 {
		t.Errorf("top-1 = %v, top-3 = %v", d.BetaTopK(1), d.BetaTopK(3))
	}
	if d.ModeRegret.Runs != 1 || d.ModeRegret.TotalNanos != 100 || d.ModeRegret.Timeouts != 0 {
		t.Errorf("mode regret = %+v", d.ModeRegret)
	}
	if d.PlanRegret.Runs != 1 || d.PlanRegret.TotalNanos != 300 || d.PlanRegret.Timeouts != 1 {
		t.Errorf("plan regret = %+v", d.PlanRegret)
	}
	if d.ShadowMismatches != 1 {
		t.Errorf("mismatches = %d, want 1", d.ShadowMismatches)
	}
	if len(d.Recent) != 1 || d.Recent[0].Kind != DecisionKindPlan {
		t.Errorf("recent = %+v, want the one kept plan record", d.Recent)
	}

	m.Reset()
	if d := m.Snapshot(); d.AlphaTotal() != 0 || d.BetaObserved() != 0 || len(d.Recent) != 0 {
		t.Errorf("Reset left data behind: %+v", d)
	}

	// Nil-safety: every method on a nil receiver is a no-op.
	var nm *ModelStats
	nm.AddAlpha(cells)
	nm.Observe(DecisionRecord{Kind: DecisionKindMode}, true)
	nm.ObserveShadowMismatch()
	nm.Reset()
	if d := nm.Snapshot(); d.AlphaTotal() != 0 {
		t.Error("nil ModelStats snapshot non-empty")
	}
}

// TestModelzConcurrent hammers DefaultModelStats from writer goroutines
// while readers fetch /modelz in both renderings — the -race test of the
// model-telemetry path (writers take the stats mutex, the handler
// snapshots under it).
func TestModelzConcurrent(t *testing.T) {
	withEnabled(t, func() {
		DefaultModelStats.Reset()
		defer DefaultModelStats.Reset()
		h := Handler(NewRegistry(), NewRecorder(1))

		var wg sync.WaitGroup
		const writers, iters = 4, 200
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var cells AlphaCells
					cells.Score(i%2 == 0, i%3 == 0, float64(i%10)/10)
					DefaultModelStats.AddAlpha(cells)
					DefaultModelStats.Observe(DecisionRecord{Kind: DecisionKindBeta, Rank: 1 + i%4}, false)
					DefaultModelStats.Observe(DecisionRecord{Kind: DecisionKindMode, RegretNanos: 50}, true)
					DefaultModelStats.Observe(DecisionRecord{Kind: DecisionKindPlan, RegretNanos: 80, ShadowTimeout: i%5 == 0}, false)
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if code, body := get(t, h, "/modelz"); code != 200 || !strings.Contains(body, "confusion matrix") {
						t.Errorf("/modelz = %d\n%s", code, body)
						return
					}
					if code, body := get(t, h, "/modelz?format=json"); code != 200 || !strings.Contains(body, `"alpha_confusion"`) {
						t.Errorf("/modelz?format=json = %d\n%s", code, body)
						return
					}
				}
			}()
		}
		wg.Wait()

		d := DefaultModelStats.Snapshot()
		if got, want := d.AlphaTotal(), int64(writers*iters); got != want {
			t.Errorf("alpha total = %d, want %d (lost updates under contention)", got, want)
		}
		if got, want := d.BetaObserved(), int64(writers*iters); got != want {
			t.Errorf("beta observed = %d, want %d", got, want)
		}
		if got, want := d.ModeRegret.Runs+d.PlanRegret.Runs, int64(2*writers*iters); got != want {
			t.Errorf("regret runs = %d, want %d", got, want)
		}

		// The final rendering reflects the settled totals in both formats.
		_, body := get(t, h, "/modelz?format=json")
		var js ModelStatsData
		if err := json.Unmarshal([]byte(body), &js); err != nil {
			t.Fatalf("/modelz JSON: %v", err)
		}
		if js.AlphaTotal() != d.AlphaTotal() {
			t.Errorf("/modelz JSON alpha total = %d, snapshot %d", js.AlphaTotal(), d.AlphaTotal())
		}
	})
}
