package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// Outcome is one shard's contribution to a gather.
type Outcome struct {
	Shard    int           `json:"shard"`
	Bindings int           `json:"bindings"`
	Elapsed  time.Duration `json:"-"`
	TimedOut bool          `json:"timed_out,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// OK reports whether the shard answered.
func (o Outcome) OK() bool { return o.Err == "" && !o.TimedOut }

// Gather is the merged answer of a scatter: the deduplicated union of
// owned bindings plus per-shard outcomes. Res carries the merged
// counters in smartpsi.Result form so the serving observe path (funnel,
// workload sketch, profiles) treats a scattered query like any other.
type Gather struct {
	Res      *smartpsi.Result
	Partial  bool // at least one shard's answer is missing
	Dups     int64
	Outcomes []Outcome
}

// Scatter is the one fan-out of a sharded query, shared by the
// in-process Cluster and the HTTP coordinator: it runs call(i, d) for
// every shard i concurrently under the sliced deadline d, times and
// counts each shard in metrics[i], classifies each reply (psi.ErrDeadline
// or context.DeadlineExceeded is a timeout, any other error an error) and
// merges the answers. Every call is waited for; a shard honours its
// deadline itself.
func Scatter(metrics []*obs.PerShard, deadline time.Time, call func(i int, d time.Time) (*smartpsi.Result, error)) (*Gather, error) {
	start := time.Now()
	obs.ShardScatters.Inc()
	shardDeadline := SliceDeadline(deadline)
	outcomes := make([]Outcome, len(metrics))
	results := make([]*smartpsi.Result, len(metrics))
	var wg sync.WaitGroup
	for i, m := range metrics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Queries.Inc()
			t0 := time.Now()
			res, err := call(i, shardDeadline)
			o := Outcome{Shard: i, Elapsed: time.Since(t0)}
			m.Seconds.Observe(o.Elapsed.Seconds())
			switch {
			case errors.Is(err, psi.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
				o.TimedOut = true
				m.Timeouts.Inc()
			case err != nil:
				o.Err = err.Error()
				m.Errors.Inc()
			default:
				o.Bindings = len(res.Bindings)
				results[i] = res
			}
			outcomes[i] = o
		}()
	}
	wg.Wait()
	return merge(outcomes, results, start)
}

// SliceDeadline reserves a gather margin out of the remaining budget:
// shards get 95% of it (clamped to [5ms, 250ms] of margin) so the
// coordinator can merge and respond before its own deadline.
func SliceDeadline(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return deadline
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return deadline
	}
	margin := remaining / 20
	if margin < 5*time.Millisecond {
		margin = 5 * time.Millisecond
	} else if margin > 250*time.Millisecond {
		margin = 250 * time.Millisecond
	}
	if margin >= remaining {
		return deadline
	}
	return deadline.Add(-margin)
}

// merge folds per-shard outcomes into a Gather; results[i] is nil
// exactly when outcomes[i] is not OK. All shards lost to deadlines is a
// deadline error (504), all lost with at least one hard failure
// surfaces that error (500), and a strict subset lost flags the answer
// partial.
//
// The merged Result sums the answered shards' Counts with Counts.Add and
// is UsedML when any shard used ML. It does not sum the wall times:
// EvalTime is the slowest shard's time and TotalTime the gather's own,
// while TrainTime, FitTime, ModelTime and FilterTime are left zero, because
// per-shard wall times do not add up across shards running in
// parallel. PlanClasses, Warm and Profile are not counts: the first two
// stay zero and Profile is the slowest shard's.
func merge(outcomes []Outcome, results []*smartpsi.Result, start time.Time) (*Gather, error) {
	ok, timedOut := 0, 0
	var firstErr error
	for i, o := range outcomes {
		switch {
		case o.OK():
			ok++
		case o.TimedOut:
			timedOut++
		case firstErr == nil:
			firstErr = fmt.Errorf("shard %d: %s", i, o.Err)
		}
	}
	if ok == 0 {
		if timedOut == len(outcomes) {
			return nil, psi.ErrDeadline
		}
		if firstErr == nil {
			firstErr = errors.New("shard: no shard answered")
		}
		return nil, firstErr
	}

	merged := &smartpsi.Result{}
	var bindings []graph.NodeID
	var slowest time.Duration
	for i, res := range results {
		if res == nil {
			continue
		}
		bindings = append(bindings, res.Bindings...)
		merged.Counts.Add(&res.Counts)
		merged.UsedML = merged.UsedML || res.UsedML
		if outcomes[i].Elapsed >= slowest {
			// The profile stays one shard's record (the slowest); the
			// counts above are the fleet's sum.
			slowest = outcomes[i].Elapsed
			merged.Profile = res.Profile
		}
	}
	sort.Slice(bindings, func(i, j int) bool { return bindings[i] < bindings[j] })
	dups := int64(0)
	uniq := bindings[:0]
	for i, u := range bindings {
		if i > 0 && u == bindings[i-1] {
			dups++
			continue
		}
		uniq = append(uniq, u)
	}
	merged.Bindings = uniq
	merged.EvalTime = slowest
	merged.TotalTime = time.Since(start)
	if dups > 0 {
		obs.ShardDupDrops.Add(dups)
	}
	partial := ok < len(outcomes)
	if partial {
		obs.ShardPartials.Inc()
	}
	obs.ShardGatherSecs.Observe(time.Since(start).Seconds())
	return &Gather{Res: merged, Partial: partial, Dups: dups, Outcomes: outcomes}, nil
}
