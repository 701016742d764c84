package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestObsBundleEndpoint covers /debugz/bundle: 503 without a bundler,
// a valid zip with one, and method discipline.
func TestObsBundleEndpoint(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(4)

	bare := Handler(reg, rec, HandlerConfig{})
	if code, body := get(t, bare, "/debugz/bundle"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not configured") {
		t.Errorf("/debugz/bundle without bundler = %d\n%s", code, body)
	}

	b, err := NewBundler(BundlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(reg, rec, HandlerConfig{Bundler: b})

	req := httptest.NewRequest(http.MethodGet, "/debugz/bundle", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz/bundle = %d\n%s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/zip" {
		t.Errorf("Content-Type = %q, want application/zip", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "bundle-") {
		t.Errorf("Content-Disposition = %q, want a bundle filename", cd)
	}
	a, err := ReadBundle(data)
	if err != nil {
		t.Fatalf("streamed bundle does not read back: %v", err)
	}
	if a.Manifest.Reason != BundleReasonManual {
		t.Errorf("streamed bundle reason = %q, want manual", a.Manifest.Reason)
	}

	req = httptest.NewRequest(http.MethodPost, "/debugz/bundle", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /debugz/bundle = %d, want 405", w.Code)
	}
}

// TestObsPprofGate pins the exposure policy: pprof is mounted with
// Pprof set (the debug-only listener), and without it — the serving
// listener without -expose-pprof — answers 403 with a hint.
func TestObsPprofGate(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(4)

	open := Handler(reg, rec, HandlerConfig{Pprof: true})
	if code, _ := get(t, open, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ with Pprof = %d, want 200", code)
	}

	closed := Handler(reg, rec, HandlerConfig{})
	code, body := get(t, closed, "/debug/pprof/")
	if code != http.StatusForbidden || !strings.Contains(body, "expose-pprof") {
		t.Errorf("/debug/pprof/ gated = %d, want 403 naming the flag\n%s", code, body)
	}
	if code, _ := get(t, closed, "/debug/pprof/heap"); code != http.StatusForbidden {
		t.Errorf("/debug/pprof/heap gated = %d, want 403", code)
	}
	// The rest of the debug surface stays up on a gated handler.
	if code, _ := get(t, closed, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on gated handler = %d, want 200", code)
	}
}

// TestSLOOnTransition checks hooks observe every state change with the
// right endpoints, and that a hook can call back into the SLOSet (the
// hook runs outside the mutex).
func TestSLOOnTransition(t *testing.T) {
	req, shed, s, set := sloFixture(t, 0)
	var got []Transition
	set.OnTransition(func(tr Transition) {
		got = append(got, tr)
		_ = set.AlertsSnapshot() // must not deadlock
	})

	s.SampleAt(sloBase)
	req.Add(100)
	shed.Add(50)
	s.SampleAt(sloBase.Add(time.Second)) // inactive -> firing
	req.Add(1000)
	s.SampleAt(sloBase.Add(2 * time.Second)) // firing -> resolved

	if len(got) != 2 {
		t.Fatalf("got %d transitions %+v, want 2", len(got), got)
	}
	if got[0].Objective != "availability" || got[0].From != StateInactive || got[0].To != StateFiring {
		t.Errorf("first transition = %+v, want availability inactive->firing", got[0])
	}
	if got[1].From != StateFiring || got[1].To != StateResolved {
		t.Errorf("second transition = %+v, want firing->resolved", got[1])
	}
	if got[0].At.IsZero() {
		t.Error("transition timestamp is zero")
	}
}
