package obs

import (
	"sort"
	"sync"
	"time"
)

// Recorder is the query-profile flight recorder: a bounded,
// concurrency-safe store keeping the K most recent profiles (a ring,
// including live ones) and the K slowest finished profiles (admitted at
// Finish time, fastest evicted first). The debug server serves it at
// /profilez.
//
// Gating matches the rest of the package: Start returns nil — which
// every Profile method accepts — when collection is disabled, so the
// disabled path costs one atomic-bool branch.
type Recorder struct {
	mu     sync.Mutex
	next   uint64
	recent []*Profile // ring of the K most recent, live included
	pos    int
	slow   []*Profile      // finished profiles, duration-descending, ≤ K
	slowD  []time.Duration // admission durations, parallel to slow
	k      int
}

// NewRecorder returns a recorder retaining k recent and k slowest
// profiles (minimum 1).
func NewRecorder(k int) *Recorder {
	if k < 1 {
		k = 1
	}
	return &Recorder{recent: make([]*Profile, k), k: k}
}

// Start begins a new profile for the named query, tagged with its
// serving request ID (X-Request-ID) and canonical shape fingerprint
// (either may be empty), or returns nil when collection is disabled or
// the recorder is nil.
func (r *Recorder) Start(name, requestID, fingerprint string) *Profile {
	if r == nil || !Enabled() {
		return nil
	}
	r.mu.Lock()
	r.next++
	p := &Profile{rec: r, d: ProfileData{ID: r.next, Name: name, RequestID: requestID,
		Fingerprint: fingerprint, Start: time.Now()}}
	r.recent[r.pos] = p
	r.pos = (r.pos + 1) % len(r.recent)
	r.mu.Unlock()
	return p
}

// admit inserts a finished profile into the slowest set, evicting the
// fastest entry once the set is full. Called by Profile.Seal after
// the profile's own lock is released.
func (r *Recorder) admit(p *Profile) {
	if r == nil {
		return
	}
	d := p.Duration()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Insertion point in the duration-descending order; ties keep the
	// earlier (lower-ID) profile ahead, so admission order breaks ties
	// deterministically.
	i := sort.Search(len(r.slowD), func(i int) bool { return r.slowD[i] < d })
	if i >= r.k {
		return // faster than everything retained
	}
	r.slow = append(r.slow, nil)
	r.slowD = append(r.slowD, 0)
	copy(r.slow[i+1:], r.slow[i:])
	copy(r.slowD[i+1:], r.slowD[i:])
	r.slow[i] = p
	r.slowD[i] = d
	if len(r.slow) > r.k {
		r.slow = r.slow[:r.k]
		r.slowD = r.slowD[:r.k]
	}
}

// Recent returns the retained profiles, newest first (live included).
func (r *Recorder) Recent() []*Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Profile, 0, len(r.recent))
	for i := 0; i < len(r.recent); i++ {
		idx := (r.pos - 1 - i + 2*len(r.recent)) % len(r.recent)
		if p := r.recent[idx]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Slowest returns the retained slowest finished profiles, slowest
// first.
func (r *Recorder) Slowest() []*Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Profile(nil), r.slow...)
}

// Lookup returns the retained profile with the given ID (searching both
// the recent ring and the slowest set), or nil.
func (r *Recorder) Lookup(id uint64) *Profile {
	for _, p := range append(r.Recent(), r.Slowest()...) {
		if p.ID() == id {
			return p
		}
	}
	return nil
}

// LookupRequest returns the most recent retained profile tagged with
// the given serving request ID (see Start), or nil. Backs
// /profilez?request_id=.
func (r *Recorder) LookupRequest(requestID string) *Profile {
	return r.find(requestID, func(d *ProfileData) string { return d.RequestID })
}

// LookupFingerprint returns the most recent retained profile tagged
// with the given canonical shape fingerprint (see Start), or nil. Backs
// /profilez?fingerprint=, which is how a /queryz row is pivoted into a
// concrete example profile.
func (r *Recorder) LookupFingerprint(fp string) *Profile {
	return r.find(fp, func(d *ProfileData) string { return d.Fingerprint })
}

// find returns the newest retained profile whose key is want (never
// matching an empty want), searching the recent ring before the slowest
// set.
func (r *Recorder) find(want string, key func(*ProfileData) string) *Profile {
	if want == "" {
		return nil
	}
	for _, p := range append(r.Recent(), r.Slowest()...) { // newest first
		if d := p.Snapshot(); key(&d) == want {
			return p
		}
	}
	return nil
}

// LastID returns the most recently assigned profile ID; the overhead
// guard uses it to attribute profiles to a measurement window.
func (r *Recorder) LastID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
