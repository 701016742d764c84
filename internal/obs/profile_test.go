package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// sealIn seals p with no facts and a fixed duration, so the recorder
// tests pin eviction order without wall-clock dependence.
func sealIn(p *Profile, d time.Duration) { p.Seal(ProfileData{DurationNanos: d.Nanoseconds()}) }

// TestObsProfileNilSafe pins the gating contract: every Profile method
// must accept a nil receiver (Recorder.Start returns nil when
// collection is off), and a nil Recorder must be inert.
func TestObsProfileNilSafe(t *testing.T) {
	var p *Profile
	p.Seal(ProfileData{Method: "ml", Error: "boom"})
	if p.ID() != 0 || p.Name() != "" || p.Duration() != 0 {
		t.Error("nil profile accessors must return zero values")
	}
	if got := p.Snapshot(); got.ID != 0 || got.Finished || got.Method != "" {
		t.Errorf("nil snapshot = %+v", got)
	}

	var r *Recorder
	if r.Start("x", "", "") != nil {
		t.Error("nil recorder Start must return nil")
	}
	if r.Recent() != nil || r.Slowest() != nil || r.Lookup(1) != nil || r.LastID() != 0 {
		t.Error("nil recorder accessors must be inert")
	}
}

// TestObsRecorderDisabled pins that Start is gated on Enabled().
func TestObsRecorderDisabled(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	Enable(false)
	r := NewRecorder(2)
	if p := r.Start("q", "", ""); p != nil {
		t.Fatalf("Start with collection disabled = %v, want nil", p)
	}
	if got := r.LastID(); got != 0 {
		t.Errorf("LastID after disabled Start = %d, want 0", got)
	}
}

// TestObsRecorderEviction pins the two retention policies: the recent
// ring keeps the K newest (live included, newest first) and the slowest
// set keeps the K slowest finished profiles in duration-descending
// order, evicting the fastest.
func TestObsRecorderEviction(t *testing.T) {
	withEnabled(t, func() {
		r := NewRecorder(3)
		durs := []time.Duration{ // ms; admission order
			5 * time.Millisecond,
			50 * time.Millisecond,
			10 * time.Millisecond,
			40 * time.Millisecond,
			20 * time.Millisecond, // evicts nothing: 50,40,20 retained? no: see below
		}
		var ps []*Profile
		for i, d := range durs {
			p := r.Start(fmt.Sprintf("q%d", i), "", "")
			sealIn(p, d)
			ps = append(ps, p)
		}
		// Slowest 3 of {5,50,10,40,20} are 50,40,20.
		slow := r.Slowest()
		if len(slow) != 3 {
			t.Fatalf("len(Slowest) = %d, want 3", len(slow))
		}
		wantSlow := []string{"q1", "q3", "q4"}
		for i, p := range slow {
			if p.Name() != wantSlow[i] {
				t.Errorf("Slowest[%d] = %s (%s), want %s", i, p.Name(), p.Duration(), wantSlow[i])
			}
		}
		// Recent ring: newest first, capacity 3.
		recent := r.Recent()
		wantRecent := []string{"q4", "q3", "q2"}
		if len(recent) != 3 {
			t.Fatalf("len(Recent) = %d, want 3", len(recent))
		}
		for i, p := range recent {
			if p.Name() != wantRecent[i] {
				t.Errorf("Recent[%d] = %s, want %s", i, p.Name(), wantRecent[i])
			}
		}
		// Lookup finds profiles retained in either set: q1 (slowest only,
		// evicted from the ring) and q2 (ring only, too fast for slowest).
		if p := r.Lookup(ps[1].ID()); p == nil || p.Name() != "q1" {
			t.Errorf("Lookup(q1) = %v", p)
		}
		if p := r.Lookup(ps[2].ID()); p == nil || p.Name() != "q2" {
			t.Errorf("Lookup(q2) = %v", p)
		}
		if p := r.Lookup(ps[0].ID()); p != nil {
			t.Errorf("Lookup(q0) = %s, want nil (evicted everywhere)", p.Name())
		}
		if r.LastID() != ps[len(ps)-1].ID() {
			t.Errorf("LastID = %d, want %d", r.LastID(), ps[len(ps)-1].ID())
		}
	})
}

// TestObsRecorderTies pins deterministic tie-breaking in the slowest
// set: equal durations keep admission (ID) order.
func TestObsRecorderTies(t *testing.T) {
	withEnabled(t, func() {
		r := NewRecorder(2)
		for i := 0; i < 3; i++ {
			sealIn(r.Start(fmt.Sprintf("t%d", i), "", ""), 7*time.Millisecond)
		}
		slow := r.Slowest()
		if len(slow) != 2 || slow[0].Name() != "t0" || slow[1].Name() != "t1" {
			names := make([]string, len(slow))
			for i, p := range slow {
				names[i] = p.Name()
			}
			t.Errorf("Slowest ties = %v, want [t0 t1]", names)
		}
	})
}

// TestObsRecorderConcurrent hammers one recorder from many goroutines
// (run under -race in CI) and checks the retained invariants: slowest
// is duration-descending with at most K entries, recent has at most K.
func TestObsRecorderConcurrent(t *testing.T) {
	withEnabled(t, func() {
		const k = 8
		r := NewRecorder(k)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					p := r.Start(fmt.Sprintf("w%d-%d", w, i), fmt.Sprintf("req-%d", i), "")
					p.Seal(ProfileData{
						CacheHits:     int64(i % 2),
						Ladder:        []LadderRung{{Entered: 1, Resolved: 1}},
						Funnel:        []FunnelDepth{{Generated: 2, DegOK: 1}},
						DurationNanos: (time.Duration(1+(w*211+i*97)%500) * time.Millisecond).Nanoseconds(),
					})
				}
			}(w)
		}
		// Concurrent readers exercise snapshotting against live writers.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				for _, p := range r.Recent() {
					_ = p.Snapshot()
				}
				_ = r.Slowest()
				_ = r.LookupRequest("req-7")
			}
		}()
		wg.Wait()
		<-done

		slow := r.Slowest()
		if len(slow) == 0 || len(slow) > k {
			t.Fatalf("len(Slowest) = %d, want 1..%d", len(slow), k)
		}
		for i := 1; i < len(slow); i++ {
			if slow[i].Duration() > slow[i-1].Duration() {
				t.Errorf("Slowest not descending at %d: %s then %s", i, slow[i-1].Duration(), slow[i].Duration())
			}
		}
		if got := len(r.Recent()); got != k {
			t.Errorf("len(Recent) = %d, want %d", got, k)
		}
		if r.LastID() != 8*200 {
			t.Errorf("LastID = %d, want %d", r.LastID(), 8*200)
		}
	})
}

// TestObsFunnel pins FunnelTotals and the stage order renderers and
// invariant.CheckFunnel read. How the rows are derived from the
// evaluator's counters is psi's TestObsFunnelDerived.
func TestObsFunnel(t *testing.T) {
	rows := []FunnelDepth{{Generated: 1, DegOK: 1, SigOK: 1, Recursed: 1}, {Generated: 4, DegOK: 3, Matched: 1}}
	if tot := FunnelTotals(rows...); tot != (FunnelDepth{Generated: 5, DegOK: 4, SigOK: 1, Recursed: 1, Matched: 1}) {
		t.Errorf("FunnelTotals = %+v, want generated=5 deg-ok=4 sig-ok=1 recursed=1 matched=1", tot)
	}
	if tot := FunnelTotals(); tot != (FunnelDepth{}) {
		t.Errorf("FunnelTotals() = %+v, want zero", tot)
	}
	names := StageNames
	stages := rows[1].Stages()
	if len(names) != len(stages) {
		t.Errorf("StageNames/Stages length mismatch: %d vs %d", len(names), len(stages))
	}
	if names[0] != "generated" || names[len(names)-1] != "matched" {
		t.Errorf("StageNames = %v", names)
	}
}

// TestObsProfileSnapshot pins sealing and both renderings (text tree
// and JSON) of a fully populated profile, error line included: Seal
// keeps the facts it is given, fills in the identity, and only the
// first Seal counts.
func TestObsProfileSnapshot(t *testing.T) {
	withEnabled(t, func() {
		r := NewRecorder(1)
		p := r.Start("snapq", "req-9", "")
		p.Seal(ProfileData{
			Fingerprint:   "00000000000000ff",
			Method:        "ml",
			Candidates:    42,
			Bindings:      5,
			TrainedNodes:  64,
			PlanClasses:   3,
			BetaScored:    8,
			BetaTop1:      6,
			TrainNanos:    (2 * time.Millisecond).Nanoseconds(),
			FitNanos:      (500 * time.Microsecond).Nanoseconds(),
			CacheHits:     1,
			CacheMisses:   2,
			ModePredicted: map[string]int64{"optimistic": 1, "pessimistic": 2},
			PlanChosen:    []int64{2, 0, 1},
			Ladder:        []LadderRung{{Entered: 2, Resolved: 1, Nanos: 4e6}, {Entered: 1, Resolved: 1, Nanos: 4e6}, {}},
			Funnel: []FunnelDepth{
				{Generated: 100, DegOK: 60, SigOK: 40, Recursed: 30, Matched: 5},
				{Generated: 30, DegOK: 20, SigOK: 12, Recursed: 12, Matched: 4},
			},
			Work:          map[string]int64{"psi_recursions_total": 123},
			Error:         "deadline exceeded",
			DurationNanos: (9 * time.Millisecond).Nanoseconds(),
		})
		p.Seal(ProfileData{Method: "second", DurationNanos: time.Hour.Nanoseconds()}) // ignored

		d := p.Snapshot()
		if !d.Finished || d.Duration() != 9*time.Millisecond || p.Duration() != 9*time.Millisecond {
			t.Errorf("finished=%v duration=%s, want true/9ms", d.Finished, d.Duration())
		}
		if d.ID != 1 || d.Name != "snapq" || d.RequestID != "req-9" || d.Fingerprint != "00000000000000ff" {
			t.Errorf("identity = id %d name %q request %q fingerprint %q", d.ID, d.Name, d.RequestID, d.Fingerprint)
		}
		if r.LookupFingerprint("00000000000000ff") != p || r.LookupRequest("req-9") != p {
			t.Error("sealed profile not found by its request ID and fingerprint")
		}
		if d.Method != "ml" || d.Candidates != 42 || d.Bindings != 5 || d.CacheHits != 1 || d.CacheMisses != 2 {
			t.Errorf("header fields = %+v", d)
		}

		var buf bytes.Buffer
		if err := d.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, want := range []string{
			"query snapq", "method=ml", "candidates=42", "bindings=5",
			"request: req-9", "shape: 00000000000000ff", "error: deadline exceeded",
			"train=2ms fit=500µs",
			"mode (model α): optimistic=1 pessimistic=2",
			"plan (model β): [0]=2 [2]=1", "β top-1 6/8 (in-sample)",
			"recovery ladder", "rung 1 predicted", "rung 3 heuristic",
			"candidate funnel", "generated", "matched",
			"psi_recursions_total=123",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("WriteText missing %q:\n%s", want, text)
			}
		}

		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back ProfileData
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.DurationNanos != d.DurationNanos || back.FitNanos != d.FitNanos || back.Funnel[0].Generated != 100 || back.Error != d.Error {
			t.Errorf("JSON round-trip = %+v", back)
		}
	})
}

// TestObsProfileLiveSnapshot pins the live (unsealed) rendering path: a
// running query shows its identity and elapsed time, nothing else.
func TestObsProfileLiveSnapshot(t *testing.T) {
	withEnabled(t, func() {
		p := NewRecorder(1).Start("liveq", "req-live", "")
		d := p.Snapshot()
		if d.Finished {
			t.Error("live profile must not be finished")
		}
		if d.Duration() <= 0 {
			t.Errorf("live duration = %s, want > 0", d.Duration())
		}
		if d.Name != "liveq" || d.RequestID != "req-live" || d.Method != "" || d.Ladder != nil || d.Work != nil {
			t.Errorf("live snapshot holds more than its identity: %+v", d)
		}
		var buf bytes.Buffer
		if err := d.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "live") || !strings.Contains(buf.String(), "request: req-live") {
			t.Errorf("live WriteText:\n%s", buf.String())
		}
	})
}

// TestObsStartProfileDefault pins the std.go convenience wiring.
func TestObsStartProfileDefault(t *testing.T) {
	withEnabled(t, func() {
		p := StartProfile("defq", "", "")
		if p == nil {
			t.Fatal("StartProfile returned nil with collection enabled")
		}
		p.Seal(ProfileData{})
		if DefaultRecorder.Lookup(p.ID()) == nil {
			t.Error("default recorder did not retain the profile")
		}
	})
}
