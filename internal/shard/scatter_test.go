package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// shardCounters reads one shard's queries, latency-sample, timeout and
// error counts.
func shardCounters(m *obs.PerShard) [4]int64 {
	return [4]int64{m.Queries.Value(), m.Seconds.Count(), m.Timeouts.Value(), m.Errors.Value()}
}

// TestScatter drives Scatter over scripted per-shard replies and checks
// the classification (answered, timed out, errored), the merged answer,
// the 504/500 errors of a scatter that lost every shard, and each
// shard's shard_<i>_* counter deltas.
func TestScatter(t *testing.T) {
	answer := func(b ...graph.NodeID) reply { return reply{res: &smartpsi.Result{Bindings: b}} }
	fail := func(err error) reply { return reply{err: err} }
	hard := errors.New("shard exploded")
	const ok, timedOut, errored = "ok", "timeout", "error"

	for _, tc := range []struct {
		name     string
		replies  []reply
		want     []string // per-shard classification
		partial  bool
		wantErr  error // nil: a gather; psi.ErrDeadline: 504; hard: 500
		bindings []graph.NodeID
	}{
		{"all answered", []reply{answer(4, 1), answer(2)}, []string{ok, ok}, false, nil, []graph.NodeID{1, 2, 4}},
		{"psi deadline", []reply{answer(3), fail(psi.ErrDeadline)}, []string{ok, timedOut}, true, nil, []graph.NodeID{3}},
		{"wrapped context deadline", []reply{fail(fmt.Errorf("wire: %w", context.DeadlineExceeded)), answer(5)}, []string{timedOut, ok}, true, nil, []graph.NodeID{5}},
		{"another error", []reply{answer(7), fail(hard), answer(8)}, []string{ok, errored, ok}, true, nil, []graph.NodeID{7, 8}},
		{"all timed out", []reply{fail(psi.ErrDeadline), fail(context.DeadlineExceeded)}, []string{timedOut, timedOut}, false, psi.ErrDeadline, nil},
		{"all lost, one hard", []reply{fail(psi.ErrDeadline), fail(hard)}, []string{timedOut, errored}, false, hard, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metrics := make([]*obs.PerShard, len(tc.replies))
			before := make([][4]int64, len(tc.replies))
			for i := range metrics {
				metrics[i] = obs.ShardMetrics(i)
				before[i] = shardCounters(metrics[i])
			}
			deadline := time.Now().Add(time.Minute)
			gth, err := Scatter(metrics, deadline, func(i int, d time.Time) (*smartpsi.Result, error) {
				if !d.Before(deadline) {
					t.Errorf("shard %d got the whole deadline, not a slice of it", i)
				}
				return tc.replies[i].res, tc.replies[i].err
			})

			for i, m := range metrics {
				got := shardCounters(m)
				delta := [4]int64{}
				for k := range got {
					delta[k] = got[k] - before[i][k]
				}
				want := [4]int64{1, 1, 0, 0}
				switch tc.want[i] {
				case timedOut:
					want[2] = 1
				case errored:
					want[3] = 1
				}
				if delta != want {
					t.Errorf("shard %d counter deltas (queries, seconds, timeouts, errors) = %v, want %v", i, delta, want)
				}
			}

			switch {
			case tc.wantErr == psi.ErrDeadline:
				if !errors.Is(err, psi.ErrDeadline) {
					t.Fatalf("err = %v, want psi.ErrDeadline (504)", err)
				}
				return
			case tc.wantErr != nil:
				if err == nil || errors.Is(err, psi.ErrDeadline) || err.Error() != "shard 1: "+hard.Error() {
					t.Fatalf("err = %v, want the hard error of shard 1 (500)", err)
				}
				return
			case err != nil:
				t.Fatalf("scatter failed: %v", err)
			}
			if gth.Partial != tc.partial {
				t.Errorf("partial = %v, want %v", gth.Partial, tc.partial)
			}
			if !bindingsEqual(gth.Res.Bindings, tc.bindings) {
				t.Errorf("bindings = %v, want %v", gth.Res.Bindings, tc.bindings)
			}
			for i, o := range gth.Outcomes {
				if o.Shard != i {
					t.Errorf("outcome %d names shard %d", i, o.Shard)
				}
				var class string
				switch {
				case o.OK():
					class = ok
					if o.Bindings != len(tc.replies[i].res.Bindings) {
						t.Errorf("shard %d outcome counts %d bindings, want %d", i, o.Bindings, len(tc.replies[i].res.Bindings))
					}
				case o.TimedOut:
					class = timedOut
				default:
					class = errored
					if o.Err != hard.Error() {
						t.Errorf("shard %d error %q, want %q", i, o.Err, hard.Error())
					}
				}
				if class != tc.want[i] {
					t.Errorf("shard %d classified %s, want %s", i, class, tc.want[i])
				}
			}
		})
	}
}

// reply is one scripted shard answer.
type reply struct {
	res *smartpsi.Result
	err error
}

// countLeaves calls fn with every int and int64 value (counts and
// time.Durations) reachable from v through structs, arrays and slices,
// and its path; pointers and other scalars are skipped.
func countLeaves(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			countLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			countLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// TestMergeSumsAllCounts is the reflection guard of the gather: each
// count of smartpsi.Result — plain fields, Alpha, the psi.Stats blocks,
// and each element of the tally arrays and slices — set alone on two
// answered shards must come out of merge as their sum, so a failure
// names the exact dropped leaves (merge folds them with Counts.Add,
// whose own guard is smartpsi's TestMergeIntoCoversAllCounters). The exclusions are merge's own:
// EvalTime is the slowest shard's time, TotalTime the gather's wall
// time, and TrainTime, FitTime, ModelTime and FilterTime are per-shard wall times,
// which do not add up across parallel shards; PlanClasses is not a
// count (nor are Warm and Profile, which the walk does not reach).
func TestMergeSumsAllCounts(t *testing.T) {
	excluded := map[string]bool{".EvalTime": true, ".TotalTime": true, ".TrainTime": true,
		".FitTime": true, ".ModelTime": true, ".FilterTime": true, ".PlanClasses": true}
	probe := func() *smartpsi.Result {
		res := &smartpsi.Result{}
		res.PlanPicks = make([]int64, 2)
		res.Depths = make([]psi.Stats, 2)
		return res
	}
	leaf := func(res *smartpsi.Result, path string) (f reflect.Value) {
		countLeaves(reflect.ValueOf(res).Elem(), "", func(p string, v reflect.Value) {
			if p == path {
				f = v
			}
		})
		return f
	}
	var paths []string
	countLeaves(reflect.ValueOf(probe()).Elem(), "", func(path string, _ reflect.Value) {
		if !excluded[path] {
			paths = append(paths, path)
		}
	})
	var bad []string
	for _, path := range paths {
		results := []*smartpsi.Result{probe(), probe()}
		for _, res := range results {
			leaf(res, path).SetInt(7)
		}
		g, err := merge([]Outcome{{Shard: 0}, {Shard: 1}}, results, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if got := leaf(g.Res, path); !got.IsValid() || got.Int() != 14 {
			bad = append(bad, path)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("merge drops %s; sum each shard count into the gather (or name it as excluded)", strings.Join(bad, ", "))
	}
	if len(paths) < 52 {
		t.Fatalf("probed only %d Result counts; did their types change?", len(paths))
	}
}
