package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServerPprofGate pins the serving-listener exposure policy: pprof
// answers 403 by default and mounts only with ExposePprof (the
// -expose-pprof flag); the rest of the debug surface is unaffected.
func TestServerPprofGate(t *testing.T) {
	_, closed := newTestServer(t, &fakeEval{}, Config{})
	resp, err := closed.Client().Get(closed.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("/debug/pprof/ default = %d, want 403", resp.StatusCode)
	}
	if !strings.Contains(string(body), "expose-pprof") {
		t.Errorf("gate message does not name the flag:\n%s", body)
	}

	_, open := newTestServer(t, &fakeEval{}, Config{ExposePprof: true})
	resp, err = open.Client().Get(open.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ with ExposePprof = %d, want 200", resp.StatusCode)
	}
}

// TestServerBundleMounted checks /debugz/bundle serves a readable
// bundle when a Bundler is configured and 503 when not.
func TestServerBundleMounted(t *testing.T) {
	_, bare := newTestServer(t, &fakeEval{}, Config{})
	resp, err := bare.Client().Get(bare.URL + "/debugz/bundle")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/debugz/bundle without bundler = %d, want 503", resp.StatusCode)
	}

	b, err := obs.NewBundler(obs.BundlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, &fakeEval{}, Config{Bundler: b})
	resp, err = ts.Client().Get(ts.URL + "/debugz/bundle")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz/bundle = %d", resp.StatusCode)
	}
	a, err := obs.ReadBundle(data)
	if err != nil {
		t.Fatalf("served bundle does not read back: %v", err)
	}
	if a.Manifest.Reason != obs.BundleReasonManual {
		t.Errorf("reason = %q, want manual", a.Manifest.Reason)
	}
}
