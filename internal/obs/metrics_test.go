package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestObsCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help text")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("x_total", "ignored"); again != c {
		t.Error("re-registering the same counter name returned a different instance")
	}
	g := r.Gauge("g", "")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	// Cross-type collision: detached metric, collision counted.
	bad := r.Gauge("x_total", "")
	if bad == nil {
		t.Fatal("cross-type collision returned nil")
	}
	if r.CollisionCount() != 1 {
		t.Errorf("collisions = %d, want 1", r.CollisionCount())
	}
}

// TestObsDefaultRegistryClean asserts the standard metric set has no
// cross-type name collisions.
func TestObsDefaultRegistryClean(t *testing.T) {
	if n := Default.CollisionCount(); n != 0 {
		t.Errorf("default registry has %d metric name collisions", n)
	}
}

func TestObsHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat_seconds"]
	wantCum := []int64{1, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v cumulative = %d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	if hs.Count != 5 {
		t.Errorf("snapshot count = %d, want 5", hs.Count)
	}
}

func TestObsHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // exactly on a bound: le="1" is inclusive
	s := r.Snapshot().Histograms["h"]
	if s.Buckets[0].Count != 1 {
		t.Errorf("observation at the bound landed above it: %+v", s.Buckets)
	}
}

func TestObsPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_total", "a demo counter")
	c.Add(3)
	r.Gauge("demo_gauge", "").Set(-2)
	h := r.Histogram("demo_seconds", "latency", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP demo_total a demo counter",
		"# TYPE demo_total counter",
		"demo_total 3",
		"# TYPE demo_gauge gauge",
		"demo_gauge -2",
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{le="0.5"} 1`,
		`demo_seconds_bucket{le="+Inf"} 2`,
		"demo_seconds_sum 2.25",
		"demo_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

func TestObsJSONEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(9)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if s.Counters["a_total"] != 9 {
		t.Errorf("counters = %v, want a_total=9", s.Counters)
	}
	if s.Histograms["h_seconds"].Count != 1 {
		t.Errorf("histograms = %v", s.Histograms)
	}
}

func TestObsReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	c.Add(5)
	h := r.Histogram("h", "", []float64{1})
	h.Observe(2)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("reset left c=%d hCount=%d hSum=%v", c.Value(), h.Count(), h.Sum())
	}
}

// TestObsConcurrentUpdates exercises the lock-free paths under the race
// detector.
func TestObsConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	s := r.Snapshot()
	var last int64
	for _, b := range s.Histograms["h"].Buckets {
		if b.Count < last {
			t.Errorf("cumulative buckets not monotone: %+v", s.Histograms["h"].Buckets)
		}
		last = b.Count
	}
}
