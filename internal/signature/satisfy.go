package signature

// Satisfies reports whether signature row a satisfies row b: for every
// label with positive weight in b, a's weight is at least as large
// (Section 3.2). By Proposition 3.2, a data node whose signature does not
// satisfy the query node's signature cannot match it. Rows must share a
// label space; a may be wider than b (extra labels are unconstrained).
func Satisfies(a, b []float64) bool {
	if len(b) > len(a) {
		for _, w := range b[len(a):] {
			if w > 0 {
				return false
			}
		}
		b = b[:len(a)]
	}
	for l, w := range b {
		if w > 0 && a[l] < w {
			return false
		}
	}
	return true
}

// Score returns the satisfiability score SS(u, v) of data row u against
// query row v (Section 3.3): the mean over v's positive-weight labels of
// u's weight divided by v's weight. Larger scores mean u's neighborhood
// over-satisfies v's and a match is more likely. A query row with no
// positive weights scores 0.
func Score(u, v []float64) float64 {
	var sum float64
	var n int
	for l, w := range v {
		if w <= 0 {
			continue
		}
		n++
		if l < len(u) {
			sum += u[l] / w
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
