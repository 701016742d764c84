package obs

import (
	"sync"
	"time"
)

// The Sampler turns the cumulative-since-boot registry into time
// series for the readers that look back over a window: the SLO
// objectives (slo.go) and the server's Retry-After estimate. Each
// reader declares with Keep the counters or histograms it reads and how
// far back it reads them; a background goroutine snapshots exactly
// those metrics at a fixed interval into per-metric rings long enough
// for the longest declared window, from which windowed counter deltas
// and histogram deltas (bucket-count differences between two samples)
// are derived. The SLO evaluator runs off the same samples via OnSample
// hooks, and /alertz names the bad counters behind a burn.

// DefaultSampleInterval is the sampling period used when NewSampler is
// given a non-positive interval; psi-serve's -sample-interval flag
// defaults to it.
const DefaultSampleInterval = time.Second

// ring is a fixed-capacity time-indexed buffer. Index 0 is the oldest
// retained sample. Not goroutine-safe; the Sampler's mutex guards it.
type ring[T any] struct {
	at  []time.Time
	v   []T
	pos int // next write slot
	n   int // live samples, <= cap
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{at: make([]time.Time, capacity), v: make([]T, capacity)}
}

func (r *ring[T]) push(at time.Time, v T) {
	r.at[r.pos] = at
	r.v[r.pos] = v
	r.pos = (r.pos + 1) % len(r.v)
	if r.n < len(r.v) {
		r.n++
	}
}

// grow re-lays the ring into a larger capacity, keeping every sample.
func (r *ring[T]) grow(capacity int) {
	g := newRing[T](capacity)
	for i := 0; i < r.n; i++ {
		g.push(r.sample(i))
	}
	*r = *g
}

// idx maps a logical index (0 = oldest) to a physical slot.
func (r *ring[T]) idx(i int) int {
	return (r.pos - r.n + i + len(r.v)) % len(r.v)
}

func (r *ring[T]) sample(i int) (time.Time, T) {
	j := r.idx(i)
	return r.at[j], r.v[j]
}

// span returns the oldest sample at or after the newest sample's time
// minus w, the newest sample, and the time between them. ok is false
// for a nil ring, when fewer than two samples fall inside the window,
// or when they share a timestamp. A window longer than the ring's
// history starts at the oldest retained sample.
func (r *ring[T]) span(w time.Duration) (oldest, newest T, dt time.Duration, ok bool) {
	if r == nil || r.n < 2 {
		return oldest, newest, 0, false
	}
	t1, v1 := r.sample(r.n - 1)
	cut := t1.Add(-w)
	for i := 0; i < r.n-1; i++ {
		if t0, v0 := r.sample(i); !t0.Before(cut) {
			if dt = t1.Sub(t0); dt <= 0 {
				break
			}
			return v0, v1, dt, true
		}
	}
	return oldest, newest, 0, false
}

// Sampler snapshots the declared metrics of a Registry on a fixed
// interval into per-metric rings. Construct with NewSampler, declare
// with Keep, then Start; Stop joins the background goroutine. Sample
// may be called directly for deterministic tests (or instead of Start
// for manual pacing).
type Sampler struct {
	reg      *Registry
	interval time.Duration

	mu       sync.Mutex
	capacity int             // ⌈longest declared window ÷ interval⌉ + 1
	kept     map[string]bool // declared metric names
	counters map[string]*ring[int64]
	hists    map[string]*ring[HistogramSnapshot]
	hooks    []func(now time.Time)

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSampler builds a sampler over reg that records nothing until a
// reader declares with Keep. A non-positive interval means
// DefaultSampleInterval.
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		kept:     make(map[string]bool),
		counters: make(map[string]*ring[int64]),
		hists:    make(map[string]*ring[HistogramSnapshot]),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Keep declares that a reader looks back up to window over the named
// counters or histograms: every later sample records them, and every
// ring holds at least ⌈window ÷ interval⌉ + 1 samples, enough to span
// the window. Safe at any time; a ring declared late starts empty. A
// name the registry does not hold as a counter or histogram records
// nothing.
func (s *Sampler) Keep(window time.Duration, names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		s.kept[name] = true
	}
	c := int((max(window, 0)+s.interval-1)/s.interval) + 1
	if c <= s.capacity {
		return
	}
	s.capacity = c
	for _, r := range s.counters {
		r.grow(c)
	}
	for _, r := range s.hists {
		r.grow(c)
	}
}

// OnSample registers a hook invoked after every sample (ticker-driven
// or manual) with the sample time, outside the sampler's lock.
// Register hooks before Start.
func (s *Sampler) OnSample(fn func(now time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// Start launches the background sampling goroutine. Idempotent.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				s.SampleAt(now)
			}
		}
	}()
}

// Stop halts the background goroutine and waits for it to exit.
// Idempotent; safe to call even if Start never ran.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// Sample takes one snapshot now. Exported so tests (and callers that
// want manual pacing) can drive the rings deterministically.
func (s *Sampler) Sample() { s.SampleAt(time.Now()) }

// SampleAt records every declared metric, stamped with the given time.
func (s *Sampler) SampleAt(now time.Time) {
	s.mu.Lock()
	for name := range s.kept {
		switch m := s.reg.lookup(name).(type) {
		case *Counter:
			record(s.counters, name, s.capacity, now, m.Value())
		case *Histogram:
			record(s.hists, name, s.capacity, now, m.snapshot())
		}
	}
	hooks := s.hooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// record pushes v onto name's ring, creating the ring on first use.
func record[T any](rings map[string]*ring[T], name string, capacity int, at time.Time, v T) {
	r := rings[name]
	if r == nil {
		r = newRing[T](capacity)
		rings[name] = r
	}
	r.push(at, v)
}

// CounterDelta reports how much the named counter advanced across the
// trailing window: the value difference and elapsed time between the
// oldest in-window sample and the newest. ok is false when fewer than
// two samples fall in the window or the counter is not kept.
func (s *Sampler) CounterDelta(name string, window time.Duration) (delta float64, dt time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v0, v1, dt, ok := s.counters[name].span(window)
	if !ok {
		return 0, 0, false
	}
	// A registry Reset between samples clamps to zero.
	return float64(max(v1-v0, 0)), dt, true
}

// CounterRate is CounterDelta expressed per second.
func (s *Sampler) CounterRate(name string, window time.Duration) (perSec float64, ok bool) {
	d, dt, ok := s.CounterDelta(name, window)
	if !ok {
		return 0, false
	}
	return d / dt.Seconds(), true
}

// HistogramDelta returns the windowed distribution of the named
// histogram: the bucket-count delta between the oldest in-window
// sample and the newest, plus the elapsed time between them.
func (s *Sampler) HistogramDelta(name string, window time.Duration) (h HistogramSnapshot, dt time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h0, h1, dt, ok := s.hists[name].span(window)
	if !ok {
		return HistogramSnapshot{}, 0, false
	}
	return SubtractHistogram(h1, h0), dt, true
}
