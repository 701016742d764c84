package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var sloBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// sloFixture wires a registry with the serving counters, a sampler and
// one availability objective, all driven manually via SampleAt.
func sloFixture(t *testing.T, forDur time.Duration) (*Counter, *Counter, *Sampler, *SLOSet) {
	t.Helper()
	reg := NewRegistry()
	req := reg.Counter("server_queries_total", "queries")
	shed := reg.Counter("server_shed_total", "sheds")
	s := NewSampler(reg, time.Second)
	// Target 0.9 (10% error budget), burn factor 2: windowed bad ratio
	// >= 20% trips the alert.
	set := NewSLOSet(s, []Objective{
		AvailabilityObjective(0.9, 2*time.Second, 5*time.Second, 2, forDur),
	})
	return req, shed, s, set
}

// TestSLOBurnMath pins the availability burn-rate computation.
func TestSLOBurnMath(t *testing.T) {
	req, shed, s, set := sloFixture(t, 0)

	s.SampleAt(sloBase)
	st := set.Status()[0]
	if st.FastWindowSampled || st.SlowWindowSampled {
		t.Errorf("windows sampled after one sample: %+v", st)
	}
	if st.State != StateInactive {
		t.Errorf("state = %s, want inactive", st.State)
	}

	req.Add(100)
	shed.Add(50)
	s.SampleAt(sloBase.Add(time.Second))
	st = set.Status()[0]
	// bad/total = 0.5, budget 0.1 -> burn 5 in both windows.
	if !st.FastWindowSampled || !approx(st.FastBurn, 5, 1e-9) {
		t.Errorf("fast burn = %v (sampled=%v), want 5", st.FastBurn, st.FastWindowSampled)
	}
	if !st.SlowWindowSampled || !approx(st.SlowBurn, 5, 1e-9) {
		t.Errorf("slow burn = %v (sampled=%v), want 5", st.SlowBurn, st.SlowWindowSampled)
	}

	// A window with traffic but no errors burns at 0; with no traffic at
	// all it also burns 0 but stays sampled.
	req.Add(100)
	s.SampleAt(sloBase.Add(2 * time.Second))
	s.SampleAt(sloBase.Add(3 * time.Second))
	st = set.Status()[0]
	if !st.FastWindowSampled || st.FastBurn != 0 {
		t.Errorf("clean fast burn = %v (sampled=%v), want 0", st.FastBurn, st.FastWindowSampled)
	}
}

// TestSLOSlowWindowSpansItsLength drives five minutes of one-second
// ticks with every request shed in the first half: the 5m slow window
// must span all five minutes and burn at the half-bad rate (0.5 over a
// 1% budget = 50), however many samples that takes, while the 1m fast
// window sees only the clean second half.
func TestSLOSlowWindowSpansItsLength(t *testing.T) {
	reg := NewRegistry()
	req := reg.Counter("server_queries_total", "queries")
	shed := reg.Counter("server_shed_total", "sheds")
	s := NewSampler(reg, DefaultSampleInterval)
	set := NewSLOSet(s, []Objective{
		AvailabilityObjective(0.99, time.Minute, 5*time.Minute, 14.4, 0),
	})

	s.SampleAt(sloBase)
	for i := 1; i <= 300; i++ {
		req.Add(10)
		if i <= 150 {
			shed.Add(10)
		}
		s.SampleAt(sloBase.Add(time.Duration(i) * DefaultSampleInterval))
	}
	if _, dt, ok := s.CounterDelta("server_queries_total", 5*time.Minute); !ok || dt != 5*time.Minute {
		t.Errorf("slow window spans %v (ok=%v), want 5m", dt, ok)
	}
	st := set.Status()[0]
	if !st.SlowWindowSampled || !approx(st.SlowBurn, 50, 1e-9) {
		t.Errorf("slow burn = %.2f (sampled=%v), want 50", st.SlowBurn, st.SlowWindowSampled)
	}
	if !st.FastWindowSampled || st.FastBurn != 0 {
		t.Errorf("fast burn = %.2f (sampled=%v), want 0", st.FastBurn, st.FastWindowSampled)
	}
}

// TestSLOImmediateFiring walks inactive -> firing -> resolved with
// For=0 and checks the obs_alerts_firing gauge tracks the transitions.
func TestSLOImmediateFiring(t *testing.T) {
	req, shed, s, set := sloFixture(t, 0)

	gauge := func() int64 { return s.reg.Snapshot().Gauges[AlertsFiring] }

	s.SampleAt(sloBase)
	req.Add(100)
	shed.Add(50)
	s.SampleAt(sloBase.Add(time.Second))
	if st := set.Status()[0]; st.State != StateFiring {
		t.Fatalf("state = %s, want firing", st.State)
	}
	if n := set.AlertsSnapshot().Firing; n != 1 || gauge() != 1 {
		t.Errorf("firing count = %d, gauge = %d, want 1, 1", n, gauge())
	}

	// Clean traffic until both windows drain the bad samples.
	for i := 2; i <= 8; i++ {
		req.Add(100)
		s.SampleAt(sloBase.Add(time.Duration(i) * time.Second))
	}
	if st := set.Status()[0]; st.State != StateResolved {
		t.Fatalf("state = %s, want resolved", st.State)
	}
	if n := set.AlertsSnapshot().Firing; n != 0 || gauge() != 0 {
		t.Errorf("firing count = %d, gauge = %d, want 0, 0", n, gauge())
	}

	// A fresh burst re-fires from resolved.
	req.Add(100)
	shed.Add(100)
	s.SampleAt(sloBase.Add(9 * time.Second))
	if st := set.Status()[0]; st.State != StateFiring {
		t.Errorf("state after relapse = %s, want firing", st.State)
	}
}

// TestSLOPendingHoldoff checks the For delay: the alert waits in
// pending, fires only after the condition holds, and a recovery while
// pending returns to inactive without ever firing.
func TestSLOPendingHoldoff(t *testing.T) {
	req, shed, s, set := sloFixture(t, 3*time.Second)

	bad := func(at time.Duration) {
		req.Add(100)
		shed.Add(50)
		s.SampleAt(sloBase.Add(at))
	}

	s.SampleAt(sloBase)
	bad(1 * time.Second)
	if st := set.Status()[0]; st.State != StatePending {
		t.Fatalf("state = %s, want pending", st.State)
	}
	if set.AlertsSnapshot().Firing != 0 {
		t.Errorf("pending alert counted as firing")
	}
	bad(2 * time.Second)
	bad(3 * time.Second)
	if st := set.Status()[0]; st.State != StatePending {
		t.Fatalf("state at For-1 = %s, want pending", st.State)
	}
	bad(4 * time.Second)
	if st := set.Status()[0]; st.State != StateFiring {
		t.Fatalf("state after For = %s, want firing", st.State)
	}

	// Second scenario: recovery while pending cancels the alert.
	req2, shed2, s2, set2 := sloFixture(t, 30*time.Second)
	s2.SampleAt(sloBase)
	req2.Add(100)
	shed2.Add(50)
	s2.SampleAt(sloBase.Add(time.Second))
	if st := set2.Status()[0]; st.State != StatePending {
		t.Fatalf("state = %s, want pending", st.State)
	}
	for i := 2; i <= 8; i++ {
		req2.Add(100)
		s2.SampleAt(sloBase.Add(time.Duration(i) * time.Second))
	}
	if st := set2.Status()[0]; st.State != StateInactive {
		t.Errorf("state after recovery while pending = %s, want inactive", st.State)
	}
}

// TestSLOLatencyObjective drives the histogram-shaped objective:
// fraction of observations over the threshold against the target.
func TestSLOLatencyObjective(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("server_psi_seconds", "latency", LatencyBuckets)
	s := NewSampler(reg, time.Second)
	// 90% of requests must finish within 10ms; burn factor 1.
	set := NewSLOSet(s, []Objective{
		LatencyObjective(10*time.Millisecond, 0.9, 2*time.Second, 5*time.Second, 1, 0),
	})

	s.SampleAt(sloBase)
	// Half the observations at 1ms (well under), half at 1s (over):
	// bad ratio 0.5, budget 0.1 -> burn 5 >= 1.
	for i := 0; i < 50; i++ {
		h.Observe(0.001)
		h.Observe(1.0)
	}
	s.SampleAt(sloBase.Add(time.Second))
	st := set.Status()[0]
	if !st.FastWindowSampled || !approx(st.FastBurn, 5, 1e-9) {
		t.Errorf("latency fast burn = %v (sampled=%v), want 5", st.FastBurn, st.FastWindowSampled)
	}
	if st.State != StateFiring {
		t.Errorf("state = %s, want firing", st.State)
	}
	if st.Name != "latency_under_10ms" {
		t.Errorf("objective name = %q", st.Name)
	}
}

// TestSLOSetDefaults checks window/burn-factor defaulting in NewSLOSet.
func TestSLOSetDefaults(t *testing.T) {
	s := NewSampler(NewRegistry(), time.Second)
	set := NewSLOSet(s, []Objective{{Name: "custom", Target: 0.99}})
	o := set.Status()[0]
	if o.FastWindowSeconds != 60 || o.SlowWindowSeconds != 300 || o.BurnFactor != 14.4 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestSLOWriteFormats checks the /alertz JSON and text renderings.
func TestSLOWriteFormats(t *testing.T) {
	req, shed, s, set := sloFixture(t, 0)
	s.SampleAt(sloBase)
	req.Add(100)
	shed.Add(50)
	s.SampleAt(sloBase.Add(time.Second))

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(set.AlertsSnapshot()); err != nil {
		t.Fatal(err)
	}
	var d AlertsData
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("invalid /alertz JSON: %v\n%s", err, buf.String())
	}
	if d.Schema != 1 || d.Firing != 1 || len(d.Alerts) != 1 || d.Alerts[0].State != StateFiring {
		t.Errorf("alerts doc = %+v", d)
	}

	buf.Reset()
	if err := set.AlertsSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1 firing / 1 objectives") ||
		!strings.Contains(out, "availability") || !strings.Contains(out, "firing") {
		t.Errorf("alert text:\n%s", out)
	}
}
