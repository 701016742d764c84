package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use but unregistered; obtain registered counters from a Registry.
// All methods are safe for concurrent use and lock-free.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n (one atomic add).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a metric that can go up and down (e.g. live worker count).
// All methods are safe for concurrent use and lock-free.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket distribution metric. Bucket bounds are
// inclusive upper edges in ascending order; observations above the last
// bound land in the implicit +Inf bucket. Observe costs one atomic add
// for the bucket, one for the running count, and a CAS loop for the
// float sum.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1, last is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// LatencyBuckets is the default bound set for latency histograms, in
// seconds: exponential from 10µs to ~100s.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// CountBuckets is the default bound set for work-count histograms
// (recursions, candidates): powers of four from 1 to ~16M.
var CountBuckets = []float64{
	1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

// Registry holds a set of named metrics. Registration (the Counter,
// Gauge and Histogram constructors) takes the registry lock; the
// returned metric pointers are then updated lock-free, so hot paths
// never touch the registry itself. Metric names must be unique across
// the registry; registering a name twice with the same type returns the
// existing metric, making package-level registration idempotent under
// repeated test binaries.
type Registry struct {
	mu      sync.Mutex
	order   []string
	byName  map[string]any
	dropped int // cross-type name collisions (programming errors)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// register returns the metric registered under name, or registers and
// returns mk(). A cross-type name collision returns a detached mk()
// (never nil) and marks the registry; TestObsRegistry asserts none
// exist.
func register[M any](r *Registry, name string, mk func() *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m, ok := m.(*M); ok {
			return m
		}
		r.dropped++
		return mk()
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the registered counter with the given name, creating
// it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the registered gauge with the given name, creating it
// if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns the registered histogram with the given name,
// creating it with the given bucket bounds if needed. Bounds must be
// ascending; they are copied.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, func() *Histogram { return newHistogram(name, help, bounds) })
}

// newHistogram builds a histogram over a copy of bounds. An unnamed one
// is a plain distribution no registry exports (a /queryz shape's
// latency).
func newHistogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// CollisionCount returns the number of cross-type name collisions seen
// at registration time (always zero in a correct program).
func (r *Registry) CollisionCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset zeroes every registered metric. Tests use it to isolate runs;
// production code never resets.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		switch m := r.byName[name].(type) {
		case *Counter:
			m.v.Store(0)
		case *Gauge:
			m.v.Store(0)
		case *Histogram:
			for i := range m.counts {
				m.counts[i].Store(0)
			}
			m.count.Store(0)
			m.sumBits.Store(0)
		}
	}
}

// BucketCount is one cumulative histogram bucket: the number of
// observations at or below UpperBound.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time histogram reading. Buckets are
// cumulative and exclude the +Inf bucket, whose cumulative count equals
// Count.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   int64         `json:"count"`
}

// Snapshot is a consistent-enough point-in-time reading of a registry:
// each metric is read atomically, though the set is not a global
// atomic cut (counters advance independently).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, name := range r.order {
		switch m := r.byName[name].(type) {
		case *Counter:
			s.Counters[name] = m.Value()
		case *Gauge:
			s.Gauges[name] = m.Value()
		case *Histogram:
			s.Histograms[name] = m.snapshot()
		}
	}
	return s
}

// snapshot reads h's cumulative buckets, count and sum.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Sum: h.Sum()}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		hs.Buckets = append(hs.Buckets, BucketCount{UpperBound: b, Count: cum})
	}
	hs.Count = cum + h.counts[len(h.bounds)].Load()
	return hs
}

// lookup returns the metric registered under name, or nil.
func (r *Registry) lookup(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// WritePrometheus encodes every registered metric in the Prometheus
// text exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	var buf bytes.Buffer
	for _, name := range r.order {
		switch m := r.byName[name].(type) {
		case *Counter:
			writeHeader(&buf, name, m.help, "counter")
			fmt.Fprintf(&buf, "%s %d\n", name, m.Value())
		case *Gauge:
			writeHeader(&buf, name, m.help, "gauge")
			fmt.Fprintf(&buf, "%s %d\n", name, m.Value())
		case *Histogram:
			writeHeader(&buf, name, m.help, "histogram")
			var cum int64
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				fmt.Fprintf(&buf, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum)
			}
			cum += m.counts[len(m.bounds)].Load()
			fmt.Fprintf(&buf, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&buf, "%s_sum %s\n", name, formatFloat(m.Sum()))
			fmt.Fprintf(&buf, "%s_count %d\n", name, cum)
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

func writeHeader(buf *bytes.Buffer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(buf, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(buf, "# TYPE %s %s\n", name, typ)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
