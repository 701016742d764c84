package obs

import (
	"encoding/json"
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
// matrix cells, calibration buckets, model-β observed and top-1 counts,
// the retained records, and the derived accuracy helper.
func TestModelStatsSnapshot(t *testing.T) {
	var m ModelStats
	var cells AlphaCells
	cells.Score(true, true, 0.9)   // TP, bucket 4
	cells.Score(true, false, 0.1)  // FP, bucket 0
	cells.Score(false, false, 0.9) // TN, bucket 4
	m.AddAlpha(cells)
	m.Observe(DecisionRecord{Kind: DecisionKindBeta, Node: 1, Top1: true})
	m.Observe(DecisionRecord{Kind: DecisionKindBeta, Node: 2})

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
	if d.BetaObserved != 2 || d.BetaTop1 != 1 {
		t.Errorf("beta observed/top-1 = %d/%d, want 2/1", d.BetaObserved, d.BetaTop1)
	}
	if len(d.Recent) != 2 || d.Recent[0].Node != 1 || d.Recent[1].Node != 2 {
		t.Errorf("recent = %+v, want both records, oldest first", d.Recent)
	}
	var text strings.Builder
	if err := d.WriteText(&text); err != nil || !strings.Contains(text.String(), "2 observed, top-1 0.500 (in-sample: the sweep nodes β was fitted on)\n") {
		t.Errorf("/modelz text (%v) has no model-β top-1 line:\n%s", err, text.String())
	}

	m.Reset()
	if d := m.Snapshot(); d.AlphaTotal() != 0 || d.BetaObserved != 0 || len(d.Recent) != 0 {
		t.Errorf("Reset left data behind: %+v", d)
	}

	// Nil-safety: every method on a nil receiver is a no-op.
	var nm *ModelStats
	nm.AddAlpha(cells)
	nm.Observe(DecisionRecord{Kind: DecisionKindBeta})
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
					DefaultModelStats.Observe(DecisionRecord{Kind: DecisionKindBeta, Top1: i%4 == 0})
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
		if got, want := d.BetaObserved, int64(writers*iters); got != want {
			t.Errorf("beta observed = %d, want %d", got, want)
		}
		if got, want := d.BetaTop1, int64(writers*iters/4); got != want {
			t.Errorf("beta top-1 = %d, want %d", got, want)
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
