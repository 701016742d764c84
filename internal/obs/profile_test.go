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

// TestObsProfileNilSafe pins the gating contract: every Profile method
// must accept a nil receiver (Recorder.Start returns nil when
// collection is off), and a nil Recorder must be inert.
func TestObsProfileNilSafe(t *testing.T) {
	var p *Profile
	p.SetMethod("ml")
	p.SetCandidates(3)
	p.SetTraining(1, 2, time.Second, time.Millisecond)
	p.RecordDecision(true, 0, 1)
	p.LadderObserve(LadderPredicted, true, time.Millisecond)
	p.MergeFunnel(&Funnel{})
	p.SetWork("x", 1)
	p.SetOutcome(5)
	p.SetError("boom")
	p.Finish()
	if p.ID() != 0 || p.Name() != "" || p.Duration() != 0 || p.Finished() {
		t.Error("nil profile accessors must return zero values")
	}
	if got := p.Snapshot(); got.ID != 0 {
		t.Errorf("nil snapshot = %+v", got)
	}
	if got := p.FunnelTotals(); got != (FunnelDepth{}) {
		t.Errorf("nil funnel totals = %+v", got)
	}
	if p.FunnelSnapshot() != nil {
		t.Error("nil profile FunnelSnapshot must be nil")
	}

	var r *Recorder
	if r.Start("x") != nil {
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
	if p := r.Start("q"); p != nil {
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
			p := r.Start(fmt.Sprintf("q%d", i))
			p.FinishIn(d)
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
			r.Start(fmt.Sprintf("t%d", i)).FinishIn(7 * time.Millisecond)
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
					p := r.Start(fmt.Sprintf("w%d-%d", w, i))
					p.RecordDecision(i%2 == 0, i%2, i%3)
					p.LadderObserve(i%NumLadderRungs, true, time.Microsecond)
					p.MergeFunnel(&Funnel{Depths: []FunnelDepth{{Generated: 2, DegOK: 1}}})
					p.FinishIn(time.Duration(1+(w*211+i*97)%500) * time.Millisecond)
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

// TestObsFunnel pins Funnel accumulation semantics.
func TestObsFunnel(t *testing.T) {
	var f Funnel
	f.At(1).Generated += 4
	f.At(1).DegOK += 3
	f.At(0).Generated++
	if len(f.Depths) != 2 {
		t.Fatalf("len(Depths) = %d, want 2", len(f.Depths))
	}
	var g Funnel
	g.Merge(&f)
	g.Merge(&f)
	g.Merge(nil)
	tot := g.Totals()
	if tot.Generated != 10 || tot.DegOK != 6 {
		t.Errorf("Totals = %+v, want generated=10 deg-ok=6", tot)
	}
	c := g.Clone()
	c.At(0).Generated = 99
	if g.Depths[0].Generated == 99 {
		t.Error("Clone must deep-copy")
	}
	if (*Funnel)(nil).Clone() != nil {
		t.Error("nil Clone must be nil")
	}
	names := StageNames()
	stages := f.Depths[1].Stages()
	if len(names) != len(stages) {
		t.Errorf("StageNames/Stages length mismatch: %d vs %d", len(names), len(stages))
	}
	if names[0] != "generated" || names[len(names)-1] != "matched" {
		t.Errorf("StageNames = %v", names)
	}
}

// TestObsProfileSnapshot pins the snapshot and both renderings (text
// tree and JSON) of a fully populated profile.
func TestObsProfileSnapshot(t *testing.T) {
	p := NewProfile("snapq")
	p.SetMethod("ml")
	p.SetCandidates(42)
	p.SetTraining(64, 3, 2*time.Millisecond, 500*time.Microsecond)
	p.RecordDecision(false, 0, 2)
	p.RecordDecision(false, 1, 0)
	p.RecordDecision(true, 1, 0)
	p.LadderObserve(LadderPredicted, true, 3*time.Millisecond)
	p.LadderObserve(LadderPredicted, false, time.Millisecond)
	p.LadderObserve(LadderOpposite, true, 4*time.Millisecond)
	p.LadderObserve(-1, true, time.Hour)             // ignored
	p.LadderObserve(NumLadderRungs, true, time.Hour) // ignored
	p.MergeFunnel(&Funnel{Depths: []FunnelDepth{
		{Generated: 100, DegOK: 60, SigOK: 40, Recursed: 30, Matched: 5},
		{Generated: 30, DegOK: 20, SigOK: 12, Recursed: 12, Matched: 4},
	}})
	p.SetWork("psi_recursions_total", 123)
	p.SetOutcome(5)
	p.FinishIn(9 * time.Millisecond)
	p.FinishIn(time.Hour) // idempotent

	d := p.Snapshot()
	if !d.Finished || d.Duration() != 9*time.Millisecond {
		t.Errorf("finished=%v duration=%s, want true/9ms", d.Finished, d.Duration())
	}
	if d.Method != "ml" || d.Candidates != 42 || d.Bindings != 5 {
		t.Errorf("header fields = %+v", d)
	}
	if d.TrainNanos != (2*time.Millisecond).Nanoseconds() || d.FitNanos != (500*time.Microsecond).Nanoseconds() {
		t.Errorf("train/fit nanos = %d/%d, want 2ms/500µs", d.TrainNanos, d.FitNanos)
	}
	if d.CacheHits != 1 || d.CacheMisses != 2 {
		t.Errorf("cache = %d/%d, want 1/2", d.CacheHits, d.CacheMisses)
	}
	if d.ModePredicted["optimistic"] != 1 || d.ModePredicted["pessimistic"] != 2 {
		t.Errorf("ModePredicted = %v", d.ModePredicted)
	}
	if len(d.PlanChosen) != 3 || d.PlanChosen[0] != 2 || d.PlanChosen[2] != 1 {
		t.Errorf("PlanChosen = %v", d.PlanChosen)
	}
	if d.Ladder[LadderPredicted].Entered != 2 || d.Ladder[LadderPredicted].Resolved != 1 {
		t.Errorf("ladder rung 1 = %+v", d.Ladder[LadderPredicted])
	}
	if d.Ladder[LadderOpposite].Nanos != (4 * time.Millisecond).Nanoseconds() {
		t.Errorf("ladder rung 2 nanos = %d", d.Ladder[LadderOpposite].Nanos)
	}
	if tot := p.FunnelTotals(); tot.Generated != 130 || tot.Matched != 9 {
		t.Errorf("FunnelTotals = %+v", tot)
	}

	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"query snapq", "method=ml", "candidates=42", "bindings=5",
		"train=2ms fit=500µs",
		"mode (model α): optimistic=1 pessimistic=2",
		"plan (model β): [0]=2 [2]=1",
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
	if back.DurationNanos != d.DurationNanos || back.FitNanos != d.FitNanos || back.Funnel[0].Generated != 100 {
		t.Errorf("JSON round-trip = %+v", back)
	}
}

// TestObsProfileLiveSnapshot pins the live (unfinished) rendering path.
func TestObsProfileLiveSnapshot(t *testing.T) {
	p := NewProfile("liveq")
	p.SetError("deadline exceeded")
	d := p.Snapshot()
	if d.Finished {
		t.Error("live profile must not be finished")
	}
	if d.Duration() <= 0 {
		t.Errorf("live duration = %s, want > 0", d.Duration())
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "live") || !strings.Contains(buf.String(), "error: deadline exceeded") {
		t.Errorf("live WriteText:\n%s", buf.String())
	}
}

// TestObsStartProfileDefault pins the std.go convenience wiring.
func TestObsStartProfileDefault(t *testing.T) {
	withEnabled(t, func() {
		p := StartProfile("defq")
		if p == nil {
			t.Fatal("StartProfile returned nil with collection enabled")
		}
		p.Finish()
		if DefaultRecorder.Lookup(p.ID()) == nil {
			t.Error("default recorder did not retain the profile")
		}
	})
}
