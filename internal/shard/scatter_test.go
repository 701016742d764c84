package shard

import (
	"context"
	"errors"
	"fmt"
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
