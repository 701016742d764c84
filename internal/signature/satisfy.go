package signature

import (
	"encoding/binary"
	"hash/maphash"
)

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

var keySeed = maphash.MakeSeed()

// Key hashes a row of Scaled units to a cache key. Units are exact, so
// identical neighborhoods hash identically and the prediction cache of
// Section 4.2.3 can reuse their decisions.
func Key(row []uint32) uint64 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	var buf [64]byte
	for len(row) > 0 {
		k := min(len(row), len(buf)/4)
		for i, w := range row[:k] {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		h.Write(buf[:4*k])
		row = row[k:]
	}
	return h.Sum64()
}
