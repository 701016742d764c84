package smartpsi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// setInt writes v into a (possibly unexported) int64-kind field via its
// address — the test lives in-package, so this only bypasses reflect's
// settability rule, not visibility.
func setInt(f reflect.Value, v int64) {
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetInt(v)
}

// int64Leaves calls fn with every int64-kind value (plain counters and
// time.Durations) reachable from v through structs, arrays and slices,
// and its path; pointers and non-counter scalars are skipped.
func int64Leaves(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Int64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			int64Leaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			int64Leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// sumInt64 deep-sums every int64 leaf of v.
func sumInt64(v reflect.Value) int64 {
	var t int64
	int64Leaves(v, "", func(_ string, f reflect.Value) { t += f.Int() })
	return t
}

// probeCounters returns workerCounters whose slice tallies have room
// for a probe in every element kind.
func probeCounters() workerCounters {
	var w workerCounters
	w.PlanPicks = make([]int64, 2)
	w.Funnel.Depths = make([]obs.FunnelDepth, 2)
	return w
}

// TestMergeIntoCoversAllCounters is the reflection guard of the worker
// merge: every int64 counter of workerCounters — plain fields, the
// psi.Stats blocks, and each element of the array and slice tallies —
// must land somewhere in Result or the modelNanos out-param. Each leaf
// is probed alone, so a failure names the exact dropped (or
// double-counted) leaves instead of reporting a count. Model α's cells
// are checked on their own: Result.Alpha is derived from them, and the
// calibration buckets reach only /modelz.
func TestMergeIntoCoversAllCounters(t *testing.T) {
	var paths []string
	w0 := probeCounters()
	int64Leaves(reflect.ValueOf(&w0).Elem(), "", func(path string, _ reflect.Value) {
		if !strings.HasPrefix(path, ".alpha.") {
			paths = append(paths, path)
		}
	})
	var bad []string
	for _, probe := range paths {
		w := probeCounters()
		int64Leaves(reflect.ValueOf(&w).Elem(), "", func(path string, f reflect.Value) {
			if path == probe {
				setInt(f, 7)
			}
		})
		var res Result
		var modelNanos int64
		w.mergeInto(&res, &modelNanos)
		w.mergeInto(&res, &modelNanos) // twice: catches `=` where `+=` was meant
		if got := sumInt64(reflect.ValueOf(res)) + modelNanos; got != 14 {
			bad = append(bad, probe)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("workerCounters.mergeInto drops or double-counts %v; fold each counter into Result (or modelNanos) exactly once", bad)
	}
	if len(paths) < 40 {
		t.Fatalf("probed only %d workerCounters leaves; did counter fields change type?", len(paths))
	}

	w := probeCounters()
	w.alpha.Alpha = [2][2]int64{{1, 2}, {3, 4}}
	var res Result
	var modelNanos int64
	w.mergeInto(&res, &modelNanos)
	w.mergeInto(&res, &modelNanos)
	if res.Alpha != (AccuracyReport{Correct: 10, Total: 20}) {
		t.Errorf("Result.Alpha from two merges of confusion %v = %+v, want 10/20", w.alpha.Alpha, res.Alpha)
	}
}
