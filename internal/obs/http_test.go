package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// withEnabled runs f with collection forced on, restoring the previous
// state afterwards.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	Enable(true)
	defer Enable(prev)
	f()
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestObsHTTPEndpoints(t *testing.T) {
	withEnabled(t, func() {
		reg := NewRegistry()
		reg.Counter("psi_demo_total", "demo").Add(11)
		rec := NewRecorder(4)
		rec.Start("httpp", "", "").Seal(ProfileData{Method: "ml",
			Funnel: []FunnelDepth{{Generated: 9, DegOK: 7, SigOK: 5, Recursed: 5, Matched: 2}}})
		h := Handler(reg, rec, HandlerConfig{Pprof: true})

		code, body := get(t, h, "/metrics")
		if code != 200 || !strings.Contains(body, "psi_demo_total 11") {
			t.Errorf("/metrics = %d\n%s", code, body)
		}

		code, body = get(t, h, "/metrics.json")
		if code != 200 || !strings.Contains(body, `"psi_demo_total": 11`) {
			t.Errorf("/metrics.json = %d\n%s", code, body)
		}

		code, body = get(t, h, "/profilez")
		if code != 200 || !strings.Contains(body, "httpp") || !strings.Contains(body, "slowest finished profiles") {
			t.Errorf("/profilez = %d\n%s", code, body)
		}
		code, body = get(t, h, "/profilez?id=1")
		if code != 200 || !strings.Contains(body, "candidate funnel") {
			t.Errorf("/profilez?id=1 = %d\n%s", code, body)
		}
		code, body = get(t, h, "/profilez?id=1&format=json")
		if code != 200 || !strings.Contains(body, `"generated": 9`) {
			t.Errorf("/profilez?id=1&format=json = %d\n%s", code, body)
		}
		code, body = get(t, h, "/profilez?format=json")
		if code != 200 || !strings.Contains(body, `"slowest"`) || !strings.Contains(body, `"recent"`) {
			t.Errorf("/profilez?format=json = %d\n%s", code, body)
		}
		if code, _ := get(t, h, "/profilez?id=999"); code != http.StatusNotFound {
			t.Errorf("/profilez?id=999 = %d, want 404", code)
		}
		if code, _ := get(t, h, "/profilez?id=bogus"); code != http.StatusBadRequest {
			t.Errorf("/profilez?id=bogus = %d, want 400", code)
		}

		if code, _ := get(t, h, "/debug/pprof/cmdline"); code != 200 {
			t.Errorf("/debug/pprof/cmdline = %d", code)
		}
	})
}

// TestObsStartDebugServer exercises the real listener path the cmd
// binaries use, including the Enable side effect and clean shutdown.
func TestObsStartDebugServer(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	Enable(false)

	addr, closeFn, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := closeFn(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if !Enabled() {
		t.Error("StartDebugServer must enable collection")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(body), "psi_recursions_total") {
		t.Errorf("GET /metrics = %d\n%s", resp.StatusCode, body)
	}
}

// TestObsSeriesAndAlertEndpoints covers /alertz format negotiation,
// its 503 answer when alerting is off, the fast-window delta it names
// for each bad counter, and the 404 of the /seriesz route it replaced.
func TestObsSeriesAndAlertEndpoints(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("series_demo_total", "demo")
	bad := reg.Counter("series_demo_bad_total", "demo failures")
	rec := NewRecorder(4)

	bare := Handler(reg, rec, HandlerConfig{})
	if code, body := get(t, bare, "/alertz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "alerting disabled") {
		t.Errorf("/alertz without alerts = %d\n%s", code, body)
	}

	s := NewSampler(reg, time.Second)
	set := NewSLOSet(s, []Objective{{
		Name: "demo", Target: 0.9,
		TotalCounter: "series_demo_total",
		BadCounters:  []string{"series_demo_bad_total"},
	}})
	h := Handler(reg, rec, HandlerConfig{Alerts: set})
	if code, _ := get(t, h, "/seriesz"); code != http.StatusNotFound {
		t.Errorf("/seriesz = %d, want 404: /alertz names the burning counter", code)
	}

	s.SampleAt(seriesBase)
	c.Add(4)
	bad.Add(1)
	s.SampleAt(seriesBase.Add(time.Second))

	// /alertz in both formats.
	code, body := get(t, h, "/alertz")
	if code != 200 || !strings.Contains(body, "OBJECTIVE") || !strings.Contains(body, "fast-window bad: series_demo_bad_total=1") {
		t.Errorf("/alertz text = %d\n%s", code, body)
	}
	code, body = get(t, h, "/alertz?format=json")
	var ad AlertsData
	if code != 200 || json.Unmarshal([]byte(body), &ad) != nil {
		t.Errorf("/alertz json = %d\n%s", code, body)
	}
	if len(ad.Alerts) != 1 || ad.Alerts[0].Name != "demo" || ad.Alerts[0].BadFast["series_demo_bad_total"] != 1 {
		t.Errorf("alerts doc = %+v", ad)
	}
}
