package obs

import (
	"sync"
	"testing"
	"time"
)

var seriesBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// counterRing reads the sampler's capacity and the named counter ring's
// retained samples, oldest first.
func counterRing(s *Sampler, name string) (capacity int, at []time.Time, v []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.counters[name]; r != nil {
		for i := 0; i < r.n; i++ {
			t, x := r.sample(i)
			at, v = append(at, t), append(v, x)
		}
	}
	return s.capacity, at, v
}

// TestSamplerWindowedRates drives SampleAt manually and checks windowed
// counter deltas, rates and histogram quantiles against hand-computed
// values.
func TestSamplerWindowedRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ts_req_total", "requests")
	h := reg.Histogram("ts_lat_seconds", "latency", []float64{1, 2, 4})
	s := NewSampler(reg, time.Second)
	s.Keep(time.Minute, "ts_req_total", "ts_lat_seconds")

	if _, _, ok := s.CounterDelta("ts_req_total", time.Minute); ok {
		t.Error("delta reported ok before any sample")
	}
	s.SampleAt(seriesBase)
	if _, _, ok := s.CounterDelta("ts_req_total", time.Minute); ok {
		t.Error("delta reported ok with a single sample")
	}

	c.Add(10)
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	s.SampleAt(seriesBase.Add(2 * time.Second))

	d, dt, ok := s.CounterDelta("ts_req_total", time.Minute)
	if !ok || d != 10 || dt != 2*time.Second {
		t.Errorf("delta = %v over %v (ok=%v), want 10 over 2s", d, dt, ok)
	}
	if rate, ok := s.CounterRate("ts_req_total", time.Minute); !ok || rate != 5 {
		t.Errorf("rate = %v (ok=%v), want 5/s", rate, ok)
	}
	if _, ok := s.CounterRate("no_such_metric", time.Minute); ok {
		t.Error("unkept metric reported ok")
	}

	// All 4 observations landed in (1,2] within the 2s window: p50
	// interpolates inside it, as the SLO path reads it.
	hd, hdt, ok := s.HistogramDelta("ts_lat_seconds", time.Minute)
	if !ok || hd.Count != 4 || hdt != 2*time.Second {
		t.Errorf("histogram delta = %d over %v (ok=%v), want 4 over 2s", hd.Count, hdt, ok)
	}
	if q, ok := HistogramQuantile(hd, 0.5); !ok || !approx(q, 1.5, 1e-12) {
		t.Errorf("window p50 = %v (ok=%v), want 1.5", q, ok)
	}
	if _, _, ok := s.HistogramDelta("no_such_metric", time.Minute); ok {
		t.Error("unkept histogram reported ok")
	}

	// A window too narrow to hold two samples is not sampled.
	if _, _, ok := s.CounterDelta("ts_req_total", time.Second); ok {
		t.Error("1s window over 2s-apart samples reported ok")
	}

	// Counter goes backwards (registry Reset): the delta clamps to zero
	// rather than reporting a negative rate.
	reg.Reset()
	s.SampleAt(seriesBase.Add(4 * time.Second))
	if d, _, ok := s.CounterDelta("ts_req_total", 10*time.Second); !ok || d != 0 {
		t.Errorf("post-reset delta = %v (ok=%v), want 0", d, ok)
	}
}

// TestSamplerRingWrap fills a ring sized for a 3s window past capacity
// and checks that only the newest samples are retained, then that a
// longer window declared later grows the ring without losing them.
func TestSamplerRingWrap(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("wrap_total", "wrap")
	s := NewSampler(reg, time.Second)
	s.Keep(3*time.Second, "wrap_total") // ⌈3s ÷ 1s⌉ + 1 = 4 samples
	for i := 0; i < 10; i++ {
		c.Add(1)
		s.SampleAt(seriesBase.Add(time.Duration(i) * time.Second))
	}
	_, at, v := counterRing(s, "wrap_total")
	if len(v) != 4 {
		t.Fatalf("samples = %d, want capacity 4", len(v))
	}
	for i, x := range v {
		if want := int64(7 + i); x != want || !at[i].Equal(seriesBase.Add(time.Duration(6+i)*time.Second)) {
			t.Errorf("sample %d = %d at %v, want %d at %ds after base", i, x, at[i], want, 6+i)
		}
	}
	// The wide window only sees retained samples: delta 3 over 3s.
	if delta, _, ok := s.CounterDelta("wrap_total", time.Hour); !ok || delta != 3 {
		t.Errorf("windowed delta after wrap = %v (ok=%v), want 3", delta, ok)
	}

	s.Keep(5*time.Second, "wrap_total")
	for i := 10; i < 12; i++ {
		c.Add(1)
		s.SampleAt(seriesBase.Add(time.Duration(i) * time.Second))
	}
	if c, at, _ := counterRing(s, "wrap_total"); c != 6 || len(at) != 6 || !at[0].Equal(seriesBase.Add(6*time.Second)) {
		t.Errorf("after growing: capacity %d, samples %d from %v; want 6, 6 from 6s after base", c, len(at), at)
	}
	if delta, dt, ok := s.CounterDelta("wrap_total", 5*time.Second); !ok || delta != 5 || dt != 5*time.Second {
		t.Errorf("5s delta after growing = %v over %v (ok=%v), want 5 over 5s", delta, dt, ok)
	}
}

// TestSamplerStartStop exercises the real background loop: ticker
// samples accumulate, Stop joins, and both are idempotent.
func TestSamplerStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bg_total", "bg").Add(1)
	s := NewSampler(reg, time.Millisecond)
	s.Keep(64*time.Millisecond, "bg_total")
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	samples := func() int { _, at, _ := counterRing(s, "bg_total"); return len(at) }
	for samples() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background sampler produced no samples")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	n := samples()
	time.Sleep(5 * time.Millisecond)
	if got := samples(); got != n {
		t.Errorf("sampler still running after Stop: %d -> %d samples", n, got)
	}
}

// TestSamplerKeepWhileSampling declares and reads while the background
// loop samples, as psi-serve's NewServer declares after Start: under
// -race it checks that Keep, SampleAt and the readers share the rings
// safely, and that the longest window sizes them.
func TestSamplerKeepWhileSampling(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("live_total", "live")
	s := NewSampler(reg, time.Millisecond)
	s.Keep(2*time.Millisecond, "live_total")
	s.Start()
	defer s.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				c.Inc()
				s.Keep(time.Duration(g*50+i)*time.Millisecond, "live_total")
				s.CounterDelta("live_total", time.Second)
			}
		}(g)
	}
	wg.Wait()
	if got, _, _ := counterRing(s, "live_total"); got != 201 {
		t.Errorf("capacity = %d, want 201 (a 200ms window at 1ms)", got)
	}
}

// TestSamplerStopWithoutStart pins that Stop is safe on a sampler whose
// goroutine never launched (psi-serve's disabled-sampling path).
func TestSamplerStopWithoutStart(t *testing.T) {
	s := NewSampler(NewRegistry(), time.Second)
	s.Stop()
}

// TestSamplerOnSample checks hook delivery with the sample timestamp.
func TestSamplerOnSample(t *testing.T) {
	s := NewSampler(NewRegistry(), time.Second)
	var got []time.Time
	s.OnSample(func(now time.Time) { got = append(got, now) })
	s.SampleAt(seriesBase)
	s.SampleAt(seriesBase.Add(time.Second))
	if len(got) != 2 || !got[0].Equal(seriesBase) || !got[1].Equal(seriesBase.Add(time.Second)) {
		t.Errorf("hook times = %v", got)
	}
}
