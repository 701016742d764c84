package psi

import "repro/internal/obs"

// statsPublishers maps every Stats field to its obs counter. The table
// is the single source of truth for PublishStats;
// TestObsPublishStatsCoversAllFields asserts (by reflection) that its
// length tracks the Stats field count, so adding a field without
// publishing it fails the build gate.
var statsPublishers = []struct {
	get     func(Stats) int64
	counter *obs.Counter
}{
	{func(s Stats) int64 { return s.Recursions }, obs.PSIRecursions},
	{func(s Stats) int64 { return s.Candidates }, obs.PSICandidates},
	{func(s Stats) int64 { return s.EdgeLabelRejects }, obs.PSIEdgeLabelRejects},
	{func(s Stats) int64 { return s.InjectivityRejects }, obs.PSIInjectivityRejects},
	{func(s Stats) int64 { return s.AdjacencyRejects }, obs.PSIAdjacencyRejects},
	{func(s Stats) int64 { return s.FilterPrunes }, obs.PSIFilterPrunes},
	{func(s Stats) int64 { return s.SigPrunes }, obs.PSISigPrunes},
	{func(s Stats) int64 { return s.DegPrunes }, obs.PSIDegPrunes},
	{func(s Stats) int64 { return s.Sorts }, obs.PSISorts},
	{func(s Stats) int64 { return s.ScoreCalcs }, obs.PSIScoreCalcs},
	{func(s Stats) int64 { return s.CapHits }, obs.PSICapHits},
	{func(s Stats) int64 { return s.Matches }, obs.PSIMatches},
	{func(s Stats) int64 { return s.Deadlines }, obs.PSIDeadlineHits},
	{func(s Stats) int64 { return s.Stops }, obs.PSIStopHits},
}

// PublishStats flushes an aggregated Stats delta into the process-wide
// obs registry, one atomic add per non-zero field, once per batch (worker
// exit, support pass, query end): the hot loops count into plain State
// rows and pay nothing per event. A no-op when collection is disabled.
func PublishStats(s Stats) {
	if !obs.Enabled() {
		return
	}
	for _, p := range statsPublishers {
		if v := p.get(s); v != 0 {
			p.counter.Add(v)
		}
	}
}

// RecordWork builds a query profile's work map from an aggregated Stats:
// its non-zero counters keyed by the same registry metric names
// PublishStats uses (nil when all are zero). It goes through
// statsPublishers, so the reflection guard that keeps PublishStats
// complete keeps the profiler complete too.
func RecordWork(s Stats) map[string]int64 {
	var work map[string]int64
	for _, pub := range statsPublishers {
		if v := pub.get(s); v != 0 {
			if work == nil {
				work = make(map[string]int64, len(statsPublishers))
			}
			work[pub.counter.Name()] = v
		}
	}
	return work
}

// Funnel derives a query's candidate funnel from the work its states
// counted per plan depth (State.Depths, Counts added up row by row), the
// rows as long as the query's plans. Every stage is an exact identity of
// run and extend:
//
//   - generated is the depth's Candidates;
//   - deg-ok drops the three basic rejections, the filter prunes and the
//     degree prunes;
//   - sig-ok drops the signature prunes;
//   - recursed is each descent into the next depth, which either counts a
//     recursion there or aborts in its tick; at the last depth each
//     descent completes a mapping, so it is Matches;
//   - matched is Matches: the search stops at the first full mapping,
//     which every depth on its path reports once.
func Funnel(depths []Stats) []obs.FunnelDepth {
	if len(depths) == 0 {
		return nil
	}
	matches := Sum(depths).Matches
	rows := make([]obs.FunnelDepth, len(depths))
	for d, s := range depths {
		f := &rows[d]
		f.Generated = s.Candidates
		f.DegOK = s.Candidates - s.EdgeLabelRejects - s.InjectivityRejects - s.AdjacencyRejects - s.FilterPrunes - s.DegPrunes
		f.SigOK = f.DegOK - s.SigPrunes
		f.Recursed = matches
		if d+1 < len(depths) {
			next := depths[d+1]
			f.Recursed = next.Recursions + next.Deadlines + next.Stops
		}
		f.Matched = matches
	}
	return rows
}
