package obs

import (
	"sort"
	"sync"
	"time"
)

// The Sampler turns the cumulative-since-boot registry into time
// series: a background goroutine snapshots every registered metric at
// a fixed interval into per-metric ring buffers, from which windowed
// counter rates and windowed histogram quantiles (bucket-count deltas
// between two samples, interpolated inside a bucket) are derived. The
// /seriesz endpoint serves the rings as JSON (psi-bundle report draws
// the sparklines), and the SLO evaluator (slo.go) runs off the same
// samples via OnSample hooks.

// DefaultSampleInterval is the sampling period used when NewSampler is
// given a non-positive interval; psi-serve's -sample-interval flag
// defaults to it.
const DefaultSampleInterval = time.Second

// defaultSeriesCapacity is the per-metric ring size when NewSampler is
// given a non-positive capacity: ~2 minutes of history at the default
// interval.
const defaultSeriesCapacity = 128

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

// idx maps a logical index (0 = oldest) to a physical slot.
func (r *ring[T]) idx(i int) int {
	return (r.pos - r.n + i + len(r.v)) % len(r.v)
}

func (r *ring[T]) sample(i int) (time.Time, T) {
	j := r.idx(i)
	return r.at[j], r.v[j]
}

// window returns the logical index of the oldest sample at or after
// the newest sample's time minus w, or -1 when fewer than two samples
// fall inside the window.
func (r *ring[T]) window(w time.Duration) int {
	if r.n < 2 {
		return -1
	}
	newest := r.at[r.idx(r.n-1)]
	cut := newest.Add(-w)
	for i := 0; i < r.n-1; i++ {
		if at := r.at[r.idx(i)]; !at.Before(cut) {
			return i
		}
	}
	return -1
}

// Sampler snapshots a Registry on a fixed interval into per-metric
// rings. Construct with NewSampler, then Start; Stop joins the
// background goroutine. Sample may be called directly for
// deterministic tests (or instead of Start for manual pacing).
type Sampler struct {
	reg      *Registry
	interval time.Duration
	capacity int

	mu       sync.Mutex
	counters map[string]*ring[int64]
	gauges   map[string]*ring[int64]
	hists    map[string]*ring[HistogramSnapshot]

	hooks    []func(now time.Time)
	preHooks []func(now time.Time)

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSampler builds a sampler over reg. A non-positive interval means
// DefaultSampleInterval; a non-positive capacity means a default of
// about two minutes of history at that interval.
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = defaultSeriesCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		counters: make(map[string]*ring[int64]),
		gauges:   make(map[string]*ring[int64]),
		hists:    make(map[string]*ring[HistogramSnapshot]),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval reports the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// OnSample registers a hook invoked after every sample (ticker-driven
// or manual) with the sample time, outside the sampler's lock.
// Register hooks before Start.
func (s *Sampler) OnSample(fn func(now time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// OnBeforeSample registers a hook invoked immediately before every
// snapshot (outside the sampler's lock), so gauges that must be polled
// — the process_* runtime health gauges — are fresh in the sample about
// to be taken. Register hooks before Start.
func (s *Sampler) OnBeforeSample(fn func(now time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.preHooks = append(s.preHooks, fn)
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

// SampleAt takes one snapshot stamped with the given time.
func (s *Sampler) SampleAt(now time.Time) {
	s.mu.Lock()
	pre := s.preHooks
	s.mu.Unlock()
	for _, fn := range pre {
		fn(now)
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	for name, v := range snap.Counters {
		r := s.counters[name]
		if r == nil {
			r = newRing[int64](s.capacity)
			s.counters[name] = r
		}
		r.push(now, v)
	}
	for name, v := range snap.Gauges {
		r := s.gauges[name]
		if r == nil {
			r = newRing[int64](s.capacity)
			s.gauges[name] = r
		}
		r.push(now, v)
	}
	for name, v := range snap.Histograms {
		r := s.hists[name]
		if r == nil {
			r = newRing[HistogramSnapshot](s.capacity)
			s.hists[name] = r
		}
		r.push(now, v)
	}
	hooks := s.hooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// CounterDelta reports how much the named counter advanced across the
// trailing window: the value difference and elapsed time between the
// oldest in-window sample and the newest. ok is false when fewer than
// two samples fall in the window or the metric is unknown.
func (s *Sampler) CounterDelta(name string, window time.Duration) (delta float64, dt time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.counters[name]
	if r == nil {
		return 0, 0, false
	}
	i := r.window(window)
	if i < 0 {
		return 0, 0, false
	}
	t0, v0 := r.sample(i)
	t1, v1 := r.sample(r.n - 1)
	if dt = t1.Sub(t0); dt <= 0 {
		return 0, 0, false
	}
	d := v1 - v0
	if d < 0 { // registry Reset between samples
		d = 0
	}
	return float64(d), dt, true
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
	r := s.hists[name]
	if r == nil {
		return HistogramSnapshot{}, 0, false
	}
	i := r.window(window)
	if i < 0 {
		return HistogramSnapshot{}, 0, false
	}
	t0, h0 := r.sample(i)
	t1, h1 := r.sample(r.n - 1)
	if dt = t1.Sub(t0); dt <= 0 {
		return HistogramSnapshot{}, 0, false
	}
	return SubtractHistogram(h1, h0), dt, true
}

// CounterSeries is one counter's ring rendered for /seriesz: the last
// cumulative value plus per-step rates between adjacent samples.
type CounterSeries struct {
	Name  string    `json:"name"`
	Last  int64     `json:"last"`
	Rates []float64 `json:"rates_per_sec"`
}

// GaugeSeries is one gauge's ring: raw sampled values.
type GaugeSeries struct {
	Name   string  `json:"name"`
	Last   int64   `json:"last"`
	Values []int64 `json:"values"`
}

// HistogramSeries is one histogram's ring: per-step observation rates
// and per-step windowed p50/p99 (quantiles of each adjacent-sample
// delta; steps with no observations report -1).
type HistogramSeries struct {
	Name  string    `json:"name"`
	Count int64     `json:"count"`
	Rates []float64 `json:"rates_per_sec"`
	P50   []float64 `json:"p50"`
	P99   []float64 `json:"p99"`
}

// SeriesData is the /seriesz JSON document.
type SeriesData struct {
	Schema          int               `json:"schema"`
	IntervalSeconds float64           `json:"interval_seconds"`
	Capacity        int               `json:"capacity"`
	Samples         int               `json:"samples"`
	Start           time.Time         `json:"start,omitempty"`
	End             time.Time         `json:"end,omitempty"`
	Counters        []CounterSeries   `json:"counters"`
	Gauges          []GaugeSeries     `json:"gauges"`
	Histograms      []HistogramSeries `json:"histograms"`
}

// SeriesSnapshot renders every ring into a SeriesData document, metric
// names sorted for stable output.
func (s *Sampler) SeriesSnapshot() SeriesData {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SeriesData{
		Schema:          1,
		IntervalSeconds: s.interval.Seconds(),
		Capacity:        s.capacity,
		Counters:        []CounterSeries{},
		Gauges:          []GaugeSeries{},
		Histograms:      []HistogramSeries{},
	}
	for _, name := range sortedKeys(s.counters) {
		r := s.counters[name]
		if r.n > out.Samples {
			out.Samples = r.n
		}
		cs := CounterSeries{Name: name, Rates: []float64{}}
		for i := 1; i < r.n; i++ {
			t0, v0 := r.sample(i - 1)
			t1, v1 := r.sample(i)
			cs.Rates = append(cs.Rates, stepRate(float64(v1-v0), t1.Sub(t0)))
		}
		if r.n > 0 {
			_, cs.Last = r.sample(r.n - 1)
			t0, _ := r.sample(0)
			t1, _ := r.sample(r.n - 1)
			if out.Start.IsZero() || t0.Before(out.Start) {
				out.Start = t0
			}
			if t1.After(out.End) {
				out.End = t1
			}
		}
		out.Counters = append(out.Counters, cs)
	}
	for _, name := range sortedKeys(s.gauges) {
		r := s.gauges[name]
		if r.n > out.Samples {
			out.Samples = r.n
		}
		gs := GaugeSeries{Name: name, Values: []int64{}}
		for i := 0; i < r.n; i++ {
			_, v := r.sample(i)
			gs.Values = append(gs.Values, v)
		}
		if r.n > 0 {
			gs.Last = gs.Values[r.n-1]
		}
		out.Gauges = append(out.Gauges, gs)
	}
	for _, name := range sortedKeys(s.hists) {
		r := s.hists[name]
		if r.n > out.Samples {
			out.Samples = r.n
		}
		hs := HistogramSeries{Name: name, Rates: []float64{}, P50: []float64{}, P99: []float64{}}
		for i := 1; i < r.n; i++ {
			t0, h0 := r.sample(i - 1)
			t1, h1 := r.sample(i)
			d := SubtractHistogram(h1, h0)
			hs.Rates = append(hs.Rates, stepRate(float64(d.Count), t1.Sub(t0)))
			hs.P50 = append(hs.P50, quantileOrMissing(d, 0.50))
			hs.P99 = append(hs.P99, quantileOrMissing(d, 0.99))
		}
		if r.n > 0 {
			_, last := r.sample(r.n - 1)
			hs.Count = last.Count
		}
		out.Histograms = append(out.Histograms, hs)
	}
	return out
}

func stepRate(delta float64, dt time.Duration) float64 {
	if dt <= 0 || delta < 0 {
		return 0
	}
	return delta / dt.Seconds()
}

func quantileOrMissing(h HistogramSnapshot, q float64) float64 {
	v, ok := HistogramQuantile(h, q)
	if !ok {
		return -1
	}
	return v
}

func sortedKeys[T any](m map[string]*ring[T]) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
