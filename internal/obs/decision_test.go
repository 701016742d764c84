package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestModelStatsSnapshot pins the aggregate arithmetic: confusion
// matrix cells, model-β observed and top-1 counts (read from their two
// counters), and the derived accuracy helper.
func TestModelStatsSnapshot(t *testing.T) {
	var m ModelStats
	var cells AlphaCells
	cells.Score(true, true)   // TP
	cells.Score(true, false)  // FP
	cells.Score(false, false) // TN
	m.AddAlpha(cells)
	before := m.Snapshot()
	SmartBetaRankChecks.Add(2)
	SmartBetaRankTop1.Add(1)

	d := m.Snapshot()
	if d.Alpha != [2][2]int64{{1, 1}, {0, 1}} {
		t.Errorf("alpha = %v, want [[1 1] [0 1]]", d.Alpha)
	}
	if got := d.AlphaAccuracy(); got != 2.0/3.0 {
		t.Errorf("accuracy = %v, want 2/3", got)
	}
	if d.BetaObserved-before.BetaObserved != 2 || d.BetaTop1-before.BetaTop1 != 1 {
		t.Errorf("beta observed/top-1 moved %d/%d, want 2/1",
			d.BetaObserved-before.BetaObserved, d.BetaTop1-before.BetaTop1)
	}
	var text strings.Builder
	d = ModelStatsData{AlphaCells: cells, BetaObserved: 2, BetaTop1: 1}
	if err := d.WriteText(&text); err != nil || !strings.Contains(text.String(), "2 observed, top-1 0.500 (in-sample: the sweep nodes β was fitted on)\n") {
		t.Errorf("/modelz text (%v) has no model-β top-1 line:\n%s", err, text.String())
	}

	m.Reset()
	if d := m.Snapshot(); d.AlphaTotal() != 0 {
		t.Errorf("Reset left data behind: %+v", d)
	}

	// Nil-safety: every method on a nil receiver is a no-op.
	var nm *ModelStats
	nm.AddAlpha(cells)
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
		h := Handler(NewRegistry(), NewRecorder(1), HandlerConfig{})
		before := DefaultModelStats.Snapshot()

		var wg sync.WaitGroup
		const writers, iters = 4, 200
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var cells AlphaCells
					cells.Score(i%2 == 0, i%3 == 0)
					DefaultModelStats.AddAlpha(cells)
					SmartBetaRankChecks.Inc()
					if i%4 == 0 {
						SmartBetaRankTop1.Inc()
					}
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
		if got, want := d.BetaObserved-before.BetaObserved, int64(writers*iters); got != want {
			t.Errorf("beta observed = %d, want %d", got, want)
		}
		if got, want := d.BetaTop1-before.BetaTop1, int64(writers*iters/4); got != want {
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
