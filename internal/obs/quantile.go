package obs

// Histogram-window arithmetic shared by SLO evaluation, /queryz and
// psi-loadgen percentile reporting: subtract two cumulative snapshots
// to get a windowed distribution, then read quantiles or
// fraction-under-threshold out of the cumulative bucket counts with
// linear interpolation inside a bucket.

// SubtractHistogram returns the distribution of observations that
// happened between older and newer: bucket-by-bucket and Count/Sum
// deltas of two cumulative snapshots of the same histogram. Negative
// deltas (a registry Reset between samples) clamp to zero. If the two
// snapshots have different bucket layouts the newer one is returned
// unchanged, as if older were empty.
func SubtractHistogram(newer, older HistogramSnapshot) HistogramSnapshot {
	if len(older.Buckets) != len(newer.Buckets) {
		return newer
	}
	out := HistogramSnapshot{
		Buckets: make([]BucketCount, len(newer.Buckets)),
		Sum:     newer.Sum - older.Sum,
		Count:   newer.Count - older.Count,
	}
	if out.Count < 0 {
		out.Count = 0
		out.Sum = 0
	}
	for i, b := range newer.Buckets {
		d := b.Count - older.Buckets[i].Count
		if d < 0 {
			d = 0
		}
		out.Buckets[i] = BucketCount{UpperBound: b.UpperBound, Count: d}
	}
	return out
}

// QuantileFromBuckets returns the q-quantile (q in [0,1]) of a
// distribution described by cumulative bucket counts, interpolating
// linearly inside the bucket that contains the target rank. The first
// bucket interpolates from zero; ranks that land past the last finite
// bound (in the implicit +Inf bucket) report the last finite bound.
// ok is false when the distribution is empty or q is out of range.
func QuantileFromBuckets(buckets []BucketCount, total int64, q float64) (v float64, ok bool) {
	if total <= 0 || q < 0 || q > 1 || len(buckets) == 0 {
		return 0, false
	}
	rank := q * float64(total)
	lowerBound, lowerCum := 0.0, int64(0)
	for _, b := range buckets {
		if float64(b.Count) >= rank {
			span := float64(b.Count - lowerCum)
			if span <= 0 {
				return b.UpperBound, true
			}
			frac := (rank - float64(lowerCum)) / span
			return lowerBound + (b.UpperBound-lowerBound)*frac, true
		}
		lowerBound, lowerCum = b.UpperBound, b.Count
	}
	return buckets[len(buckets)-1].UpperBound, true
}

// HistogramQuantile is QuantileFromBuckets applied to a snapshot.
func HistogramQuantile(h HistogramSnapshot, q float64) (float64, bool) {
	return QuantileFromBuckets(h.Buckets, h.Count, q)
}

// FractionAtOrBelow estimates the fraction of observations at or below
// threshold, interpolating linearly inside the bucket the threshold
// falls in. Observations in the implicit +Inf bucket count as above any
// finite threshold. ok is false for an empty distribution.
func FractionAtOrBelow(h HistogramSnapshot, threshold float64) (frac float64, ok bool) {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0, false
	}
	if threshold < 0 {
		return 0, true
	}
	lowerBound, lowerCum := 0.0, int64(0)
	for _, b := range h.Buckets {
		if threshold <= b.UpperBound {
			span := b.UpperBound - lowerBound
			inBucket := float64(b.Count - lowerCum)
			at := float64(lowerCum)
			if span > 0 {
				at += inBucket * (threshold - lowerBound) / span
			} else {
				at += inBucket
			}
			return at / float64(h.Count), true
		}
		lowerBound, lowerCum = b.UpperBound, b.Count
	}
	return float64(lowerCum) / float64(h.Count), true
}
