package obs

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkSpaceSaving asserts the classic Space-Saving guarantees against
// exact truth: for every tracked shape, truth <= estimate, estimate -
// errBound <= truth, and errBound <= N/k. Any heavy hitter with true
// count > N/k must still be tracked.
func checkSpaceSaving(t *testing.T, w *Workload, truth map[uint64]int64, n int64) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if int64(len(w.entries)) > int64(w.k) {
		t.Fatalf("sketch tracks %d shapes, cap is %d", len(w.entries), w.k)
	}
	bound := n / int64(w.k)
	for shape, e := range w.entries {
		tc := truth[shape]
		if e.count < tc {
			t.Errorf("shape %x: estimate %d under-counts truth %d", shape, e.count, tc)
		}
		if e.count-e.errBound > tc {
			t.Errorf("shape %x: estimate %d - err %d exceeds truth %d", shape, e.count, e.errBound, tc)
		}
		if e.errBound > bound {
			t.Errorf("shape %x: errBound %d exceeds N/k = %d/%d = %d", shape, e.errBound, n, w.k, bound)
		}
	}
	for shape, tc := range truth {
		if tc > bound {
			if _, ok := w.entries[shape]; !ok {
				t.Errorf("heavy hitter %x (count %d > N/k %d) was evicted", shape, tc, bound)
			}
		}
	}
}

// TestWorkloadSpaceSavingAdversarial cycles k+1 distinct shapes — the
// classic churn worst case, every miss evicting the minimum — and the
// bounds must still hold.
func TestWorkloadSpaceSavingAdversarial(t *testing.T) {
	const k, rounds = 8, 400
	w := NewWorkload(k)
	truth := map[uint64]int64{}
	var n int64
	for i := 0; i < rounds; i++ {
		shape := uint64(i % (k + 1))
		w.Observe(QueryObservation{Shape: shape, Exact: shape})
		truth[shape]++
		n++
	}
	checkSpaceSaving(t, w, truth, n)
}

// TestWorkloadSpaceSavingZipf streams a Zipfian mix over many more
// distinct shapes than the sketch tracks: the bounds must hold and the
// hot keys must survive.
func TestWorkloadSpaceSavingZipf(t *testing.T) {
	const k, n = 16, 20000
	w := NewWorkload(k)
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.3, 1, 512)
	truth := map[uint64]int64{}
	for i := 0; i < n; i++ {
		shape := zipf.Uint64()
		w.Observe(QueryObservation{Shape: shape, Exact: shape ^ uint64(i%4)})
		truth[shape]++
	}
	checkSpaceSaving(t, w, truth, n)
}

// TestWorkloadAggregatesCoverage is the reflection gate: every int64
// aggregate field (funnel included) must be nonzero after observing
// fully-populated observations across all four outcomes — so a field
// added to ShapeAggregates cannot silently be missed by the fold.
func TestWorkloadAggregatesCoverage(t *testing.T) {
	w := NewWorkload(4)
	full := QueryObservation{
		Shape: 1, Exact: 7, Example: "q4", Nodes: 4, Edges: 3, PivotLabel: 2,
		Outcome: WorkloadOutcomeOK, Wall: 3 * time.Millisecond,
		Work: 9, Candidates: 5, Bindings: 2, CacheHits: 1, Flips: 1, Fallbacks: 1,
		ModeMix: [2]int64{2, 3}, UsedML: true,
		Funnel: FunnelDepth{Generated: 5, DegOK: 4, SigOK: 3, Recursed: 2, Matched: 1},
	}
	w.Observe(full)
	w.Observe(full) // same Exact: the repeat hit
	for _, outcome := range []string{WorkloadOutcomeShed, WorkloadOutcomeDeadline, WorkloadOutcomeError} {
		o := full
		o.Exact = 100
		o.Outcome = outcome
		w.Observe(o)
	}

	w.mu.Lock()
	agg := w.entries[1].agg
	w.mu.Unlock()
	var missed []string
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
			case reflect.Int64:
				if f.Int() == 0 {
					missed = append(missed, name)
				}
			default:
				t.Errorf("%s: unexpected aggregate field kind %s", name, f.Kind())
			}
		}
	}
	walk(reflect.ValueOf(agg), "")
	if len(missed) > 0 {
		t.Errorf("aggregate fields not exercised by the fold (wire them through Observe): %s",
			strings.Join(missed, ", "))
	}
}

// TestWorkloadSnapshot checks the /queryz document: cost-descending
// ranking, share arithmetic, and the cache-win estimate derived from
// exact-hash repeats.
func TestWorkloadSnapshot(t *testing.T) {
	w := NewWorkload(8)
	// Shape 1: two cheap repeats of one exact query; shape 2: one
	// expensive singleton.
	w.Observe(QueryObservation{Shape: 1, Exact: 10, Wall: time.Millisecond, Example: "hot"})
	w.Observe(QueryObservation{Shape: 1, Exact: 10, Wall: time.Millisecond})
	w.Observe(QueryObservation{Shape: 2, Exact: 20, Wall: 50 * time.Millisecond, Example: "cold"})

	d := w.Snapshot()
	if d.Schema != 1 || d.Observed != 3 || d.TrackedShapes != 2 {
		t.Fatalf("snapshot header = %+v", d)
	}
	if len(d.Shapes) != 2 || d.Shapes[0].Example != "cold" {
		t.Fatalf("cost ranking wrong: %+v", d.Shapes)
	}
	hot := d.Shapes[1]
	if hot.Count != 2 || hot.Totals.RepeatHits != 1 {
		t.Errorf("hot shape = %+v", hot)
	}
	if got, want := hot.CountShare, 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("hot CountShare = %v, want %v", got, want)
	}
	if d.CacheWin.RepeatHits != 1 || d.CacheWin.Observed != 3 {
		t.Errorf("cache win = %+v", d.CacheWin)
	}
	if got, want := d.CacheWin.HitRate, 1.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("hit rate upper bound = %v, want %v", got, want)
	}
	// One repeat of a 1ms-mean shape: ~1ms savable.
	if d.CacheWin.SavableNanos <= 0 || d.CacheWin.SavableNanos > (2*time.Millisecond).Nanoseconds() {
		t.Errorf("savable = %dns", d.CacheWin.SavableNanos)
	}
}

// TestWorkloadNil: every method on a nil sketch is a no-op — the
// disabled serving path.
func TestWorkloadNil(t *testing.T) {
	var w *Workload
	w.Observe(QueryObservation{Shape: 1})
	d := w.Snapshot()
	if d.Schema != 1 || d.Observed != 0 || len(d.Shapes) != 0 {
		t.Fatalf("nil snapshot = %+v", d)
	}
}

// TestWorkloadHTTP drives /queryz through the debug handler: 503 when
// unarmed, text and JSON when armed, and /profilez?fingerprint= lookup.
func TestWorkloadHTTP(t *testing.T) {
	withEnabled(t, func() {
		reg := NewRegistry()
		rec := NewRecorder(4)

		// Unarmed: /queryz must explain itself with a 503.
		h := Handler(reg, rec, HandlerConfig{})
		if code, body := get(t, h, "/queryz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "workload analytics disabled") {
			t.Errorf("/queryz unarmed = %d\n%s", code, body)
		}

		w := NewWorkload(8)
		w.Observe(QueryObservation{Shape: 0xbeef, Exact: 1, Wall: time.Millisecond, Example: "srv/q1"})
		w.Observe(QueryObservation{Shape: 0xbeef, Exact: 1, Wall: time.Millisecond})
		rec.Start("srv/q1", "", "000000000000beef").Seal(ProfileData{})
		h = Handler(reg, rec, HandlerConfig{Workload: w})

		code, body := get(t, h, "/queryz")
		if code != 200 || !strings.Contains(body, "000000000000beef") || !strings.Contains(body, "srv/q1") {
			t.Errorf("/queryz = %d\n%s", code, body)
		}
		code, body = get(t, h, "/queryz?format=json")
		if code != 200 {
			t.Fatalf("/queryz?format=json = %d\n%s", code, body)
		}
		var d WorkloadData
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatalf("/queryz json: %v", err)
		}
		if d.Schema != 1 || len(d.Shapes) != 1 || d.Shapes[0].Fingerprint != "000000000000beef" {
			t.Errorf("/queryz json = %+v", d)
		}
		if d.CacheWin.RepeatHits != 1 {
			t.Errorf("cache win section = %+v", d.CacheWin)
		}

		code, body = get(t, h, "/profilez?fingerprint=000000000000beef")
		if code != 200 || !strings.Contains(body, "srv/q1") {
			t.Errorf("/profilez?fingerprint= = %d\n%s", code, body)
		}
		if code, _ := get(t, h, "/profilez?fingerprint=ffffffffffffffff"); code != http.StatusNotFound {
			t.Errorf("/profilez with unknown fingerprint = %d, want 404", code)
		}
	})
}

// TestWorkloadMetrics: the obs_workload_* meta-metrics move with the
// sketch, so /metrics and a bundle's metrics.json show them.
func TestWorkloadMetrics(t *testing.T) {
	base := workloadObserved.Value()
	baseRepeats := workloadRepeats.Value()
	baseChurn := workloadChurn.Value()
	w := NewWorkload(2)
	w.Observe(QueryObservation{Shape: 1, Exact: 1})
	w.Observe(QueryObservation{Shape: 1, Exact: 1})
	w.Observe(QueryObservation{Shape: 2, Exact: 2})
	w.Observe(QueryObservation{Shape: 3, Exact: 3}) // full: evicts the min
	if got := workloadObserved.Value() - base; got != 4 {
		t.Errorf("obs_workload_observed_total moved %d, want 4", got)
	}
	if got := workloadRepeats.Value() - baseRepeats; got != 1 {
		t.Errorf("obs_workload_repeat_hits_total moved %d, want 1", got)
	}
	if got := workloadChurn.Value() - baseChurn; got != 1 {
		t.Errorf("obs_workload_topk_churn_total moved %d, want 1", got)
	}
	if got := workloadTracked.Value(); got != 2 {
		t.Errorf("obs_workload_tracked_shapes = %d, want 2", got)
	}
}
