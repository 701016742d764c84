package obs

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// bundleRig is a fully private debug surface: a registry with serving
// counters, a manually driven sampler, one availability objective, a
// recorder with one finished profile, a workload sketch with one shape
// and /modelz's model-α cells — every endpoint a production bundle
// reads.
type bundleRig struct {
	reg       *Registry
	req, shed *Counter
	s         *Sampler
	set       *SLOSet
	rec       *Recorder
	wl        *Workload
	mux       http.Handler // set by bundler
}

func bundleFixture(t *testing.T) *bundleRig {
	t.Helper()
	prev := Enabled()
	Enable(true) // Recorder.Start and Profile writes are collection-gated
	t.Cleanup(func() { Enable(prev) })
	r := &bundleRig{reg: NewRegistry(), rec: NewRecorder(4), wl: NewWorkload(4)}
	r.req = r.reg.Counter("server_queries_total", "queries")
	r.shed = r.reg.Counter("server_shed_total", "sheds")
	r.s = NewSampler(r.reg, time.Second)
	r.set = NewSLOSet(r.s, []Objective{
		AvailabilityObjective(0.9, 2*time.Second, 5*time.Second, 2, 0),
	})

	r.rec.Start("q-0", "req-abc", "").Seal(ProfileData{Method: "pessimistic", Bindings: 3,
		BetaScored: 4, BetaTop1: 3, DurationNanos: (5 * time.Millisecond).Nanoseconds()})

	r.wl.Observe(QueryObservation{Shape: 7, Exact: 7, Example: "q-0", Nodes: 3, Edges: 2,
		Outcome: WorkloadOutcomeOK, Wall: time.Millisecond})

	DefaultModelStats.Reset()
	t.Cleanup(DefaultModelStats.Reset)
	DefaultModelStats.AddAlpha(AlphaCells{Alpha: [2][2]int64{{1, 0}, {0, 2}}})
	return r
}

// bundler builds a Bundler over cfg (its Alerts defaulting to the rig's
// objective set) and mounts it on the rig's debug mux.
func (r *bundleRig) bundler(t *testing.T, cfg BundlerConfig) *Bundler {
	t.Helper()
	if cfg.Alerts == nil {
		cfg.Alerts = r.set
	}
	b, err := NewBundler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.mux = Handler(r.reg, r.rec, HandlerConfig{Alerts: r.set, Workload: r.wl, Bundler: b})
	return b
}

// captured reads the Default registry's bundle counter, where every
// Bundler counts.
func captured() int64 { return Default.Snapshot().Counters[BundlesCaptured] }

// TestSeriesHoldOnlyDeclared pins that the sampler rings exactly what a
// window reader declared: an undeclared counter, gauge and histogram in
// the same registry get no ring and read as unsampled.
func TestSeriesHoldOnlyDeclared(t *testing.T) {
	r := bundleFixture(t)
	r.reg.Counter("undeclared_total", "read by no window").Add(3)
	r.reg.Gauge("undeclared_depth", "read by no window").Set(4)
	r.reg.Histogram("undeclared_seconds", "read by no window", LatencyBuckets).Observe(0.1)
	r.s.SampleAt(sloBase)
	r.req.Add(10)
	r.s.SampleAt(sloBase.Add(time.Second))

	var names []string
	r.s.mu.Lock()
	for name := range r.s.counters {
		names = append(names, name)
	}
	for name := range r.s.hists {
		names = append(names, name)
	}
	r.s.mu.Unlock()
	sort.Strings(names)
	// The availability objective declares five bad counters too; the
	// rig registers only the shed one.
	if got, want := strings.Join(names, ","), "server_queries_total,server_shed_total"; got != want {
		t.Errorf("sampler rings %s, want %s", got, want)
	}
	if _, _, ok := r.s.CounterDelta("undeclared_total", time.Minute); ok {
		t.Error("an undeclared counter reads as sampled")
	}
	if _, _, ok := r.s.HistogramDelta("undeclared_seconds", time.Minute); ok {
		t.Error("an undeclared histogram reads as sampled")
	}
	if d, _, ok := r.s.CounterDelta("server_queries_total", time.Minute); !ok || d != 10 {
		t.Errorf("declared counter delta = %v (sampled %v), want 10", d, ok)
	}
}

// keptOnDisk lists the bundles in dir, oldest first.
func keptOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "bundle-*.zip"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths) // filenames embed a fixed-width UTC timestamp
	return paths
}

func TestBundleRoundTrip(t *testing.T) {
	r := bundleFixture(t)
	r.req.Add(10)
	r.s.SampleAt(sloBase)
	r.s.SampleAt(sloBase.Add(time.Second))

	b := r.bundler(t, BundlerConfig{})
	var buf bytes.Buffer
	n, err := b.WriteBundle(&buf, BundleReasonManual, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteBundle reported %d bytes, wrote %d", n, buf.Len())
	}

	a, err := ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Schema != BundleSchemaVersion || a.Manifest.Reason != BundleReasonManual {
		t.Errorf("manifest schema=%d reason=%q", a.Manifest.Schema, a.Manifest.Reason)
	}
	if a.Manifest.GoVersion == "" || a.Manifest.PID == 0 {
		t.Errorf("manifest missing build identity: %+v", a.Manifest)
	}
	for _, name := range []string{
		ManifestEntry, MetricsEntry, AlertsEntry,
		ProfilesEntry, ModelEntry, WorkloadEntry, GoroutinesEntry, HeapEntry,
	} {
		if _, err := a.Entry(name); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal(mustEntry(t, a, MetricsEntry), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if snap.Counters["server_queries_total"] != 10 {
		t.Errorf("metrics.json queries = %d, want 10", snap.Counters["server_queries_total"])
	}

	var profs ProfilesData
	if err := json.Unmarshal(mustEntry(t, a, ProfilesEntry), &profs); err != nil {
		t.Fatalf("profiles.json: %v", err)
	}
	if len(profs.Recent) != 1 || profs.Recent[0].RequestID != "req-abc" || profs.Recent[0].BetaScored != 4 {
		t.Errorf("profiles.json recent = %+v, want one profile with req-abc and its β tally", profs.Recent)
	}

	var model ModelStatsData
	if err := json.Unmarshal(mustEntry(t, a, ModelEntry), &model); err != nil {
		t.Fatalf("modelz.json: %v", err)
	}
	if model.AlphaTotal() != 3 || model.AlphaCorrect() != 3 {
		t.Errorf("modelz.json α = %d/%d, want 3/3", model.AlphaCorrect(), model.AlphaTotal())
	}

	if !strings.Contains(string(mustEntry(t, a, GoroutinesEntry)), "goroutine") {
		t.Error("goroutines.txt does not look like a stack dump")
	}
}

// TestBundleEndpointParity pins the bundle's one rule: every JSON entry
// decodes into the type its endpoint serves and equals a GET of that
// endpoint taken at the same instant; an unarmed endpoint (503) is left
// out of the bundle rather than failing it.
func TestBundleEndpointParity(t *testing.T) {
	r := bundleFixture(t)
	r.req.Add(10)
	r.s.SampleAt(sloBase)
	r.shed.Add(5)
	r.s.SampleAt(sloBase.Add(time.Second))

	docs := map[string]func() any{
		MetricsEntry:  func() any { return new(Snapshot) },
		AlertsEntry:   func() any { return new(AlertsData) },
		ProfilesEntry: func() any { return new(ProfilesData) },
		ModelEntry:    func() any { return new(ModelStatsData) },
		WorkloadEntry: func() any { return new(WorkloadData) },
	}
	b := r.bundler(t, BundlerConfig{})
	var buf bytes.Buffer
	if _, err := b.WriteBundle(&buf, BundleReasonManual, ""); err != nil {
		t.Fatal(err)
	}
	a, err := ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(bundleEndpoints) != len(docs) {
		t.Fatalf("%d bundle endpoints, %d decoders in this test", len(bundleEndpoints), len(docs))
	}
	for _, e := range bundleEndpoints {
		fromBundle, fromGET := docs[e.entry](), docs[e.entry]()
		if err := json.Unmarshal(mustEntry(t, a, e.entry), fromBundle); err != nil {
			t.Errorf("%s does not decode as its endpoint's type: %v", e.entry, err)
			continue
		}
		code, body := get(t, r.mux, e.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d", e.path, code)
		}
		if err := json.Unmarshal([]byte(body), fromGET); err != nil {
			t.Fatalf("GET %s: %v", e.path, err)
		}
		if !reflect.DeepEqual(fromBundle, fromGET) {
			t.Errorf("%s differs from GET %s:\nbundle %+v\nGET    %+v", e.entry, e.path, fromBundle, fromGET)
		}
	}

	// Unarmed: no alerts or workload on the mux.
	bare, err := NewBundler(BundlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	Handler(r.reg, r.rec, HandlerConfig{Bundler: bare})
	buf.Reset()
	if _, err := bare.WriteBundle(&buf, BundleReasonManual, ""); err != nil {
		t.Fatalf("bundle with unarmed endpoints: %v", err)
	}
	if a, err = ReadBundle(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{AlertsEntry, WorkloadEntry} {
		if _, ok := a.Entries[name]; ok {
			t.Errorf("unarmed endpoint's %s is in the bundle", name)
		}
	}
	for _, name := range []string{MetricsEntry, ProfilesEntry, ModelEntry, GoroutinesEntry, HeapEntry} {
		if _, ok := a.Entries[name]; !ok {
			t.Errorf("bundle lacks %s", name)
		}
	}
}

func mustEntry(t *testing.T, a *BundleArchive, name string) []byte {
	t.Helper()
	data, err := a.Entry(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBundleCooldown drives AutoCapture with a fake clock: a second
// firing inside the cooldown window must be suppressed, one after it
// must capture again.
func TestBundleCooldown(t *testing.T) {
	now, dir := sloBase, t.TempDir()
	b := bundleFixture(t).bundler(t, BundlerConfig{
		Dir: dir, Cooldown: time.Minute,
		Now: func() time.Time { return now },
	})
	before := captured()
	if _, captured, err := b.AutoCapture("availability"); err != nil || !captured {
		t.Fatalf("first capture: captured=%v err=%v", captured, err)
	}
	now = now.Add(30 * time.Second)
	if _, captured, err := b.AutoCapture("availability"); err != nil || captured {
		t.Fatalf("inside cooldown: captured=%v err=%v, want suppressed", captured, err)
	}
	// A different objective has its own cooldown slot.
	if _, captured, err := b.AutoCapture("latency"); err != nil || !captured {
		t.Fatalf("other objective inside availability cooldown: captured=%v err=%v", captured, err)
	}
	now = now.Add(31 * time.Second)
	if _, captured, err := b.AutoCapture("availability"); err != nil || !captured {
		t.Fatalf("after cooldown: captured=%v err=%v", captured, err)
	}
	if got := captured() - before; got != 3 {
		t.Errorf("%s grew by %d, want 3", BundlesCaptured, got)
	}
	if got := len(keptOnDisk(t, dir)); got != 3 {
		t.Errorf("kept %d bundles, want 3", got)
	}
}

// TestBundleRetention captures past the Keep bound and checks the
// oldest files are evicted from disk, newest retained.
func TestBundleRetention(t *testing.T) {
	dir := t.TempDir()
	now := sloBase
	b := bundleFixture(t).bundler(t, BundlerConfig{
		Dir: dir, Keep: 2,
		Now: func() time.Time { now = now.Add(time.Second); return now },
	})
	var paths []string
	for i := 0; i < 4; i++ {
		p, err := b.CaptureToDir(BundleReasonAlert, "availability")
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	kept := keptOnDisk(t, dir)
	if len(kept) != 2 || kept[0] != paths[2] || kept[1] != paths[3] {
		t.Errorf("kept = %v, want the two newest of %v", kept, paths)
	}
	for _, old := range paths[:2] {
		if _, err := os.Stat(old); !os.IsNotExist(err) {
			t.Errorf("evicted bundle %s still on disk (err=%v)", old, err)
		}
	}
	// The survivors must still read back clean.
	if _, err := ReadBundleFile(paths[3]); err != nil {
		t.Errorf("retained bundle unreadable: %v", err)
	}
}

// TestBundleAutoCaptureOnFiring drives the real alert state machine to
// firing and checks the transition hook — which runs on the sampler
// tick, outside the sampler's and the SLO set's locks — captured an alert
// bundle naming the objective, with the /alertz document naming the
// counter that burned.
func TestBundleAutoCaptureOnFiring(t *testing.T) {
	r := bundleFixture(t)
	dir := t.TempDir()
	r.bundler(t, BundlerConfig{Dir: dir})
	r.s.SampleAt(sloBase)
	r.req.Add(100)
	r.shed.Add(50)
	r.s.SampleAt(sloBase.Add(time.Second)) // burn 5 > factor 2: firing

	kept := keptOnDisk(t, dir)
	if len(kept) != 1 {
		t.Fatalf("kept = %v, want exactly one auto-captured bundle", kept)
	}
	a, err := ReadBundleFile(kept[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Reason != BundleReasonAlert || a.Manifest.Objective != "availability" {
		t.Errorf("manifest reason=%q objective=%q, want alert/availability",
			a.Manifest.Reason, a.Manifest.Objective)
	}
	var alerts AlertsData
	if err := json.Unmarshal(mustEntry(t, a, AlertsEntry), &alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.Firing != 1 || alerts.Alerts[0].State != StateFiring {
		t.Errorf("alertz.json in bundle: firing=%d state=%s, want the captured state to show the alert",
			alerts.Firing, alerts.Alerts[0].State)
	}
	if bad := alerts.Alerts[0].BadFast; bad["server_shed_total"] != 50 {
		t.Errorf("alertz.json breakdown = %v, want server_shed_total 50", bad)
	}

	// Re-firing after a resolve inside the cooldown stays suppressed.
	r.req.Add(1000)
	r.s.SampleAt(sloBase.Add(2 * time.Second)) // resolves
	r.shed.Add(2000)
	r.s.SampleAt(sloBase.Add(3 * time.Second)) // fires again, within default 5m cooldown
	if got := keptOnDisk(t, dir); len(got) != 1 {
		t.Errorf("kept = %v after re-fire inside cooldown, want still 1", got)
	}
}

// TestBundleUnarmed pins the zero-cost contract: without a Dir the
// Bundler never auto-captures and CaptureToDir refuses.
func TestBundleUnarmed(t *testing.T) {
	r := bundleFixture(t)
	b := r.bundler(t, BundlerConfig{})
	before := captured()
	if b.Armed() {
		t.Fatal("bundler without Dir reports Armed")
	}
	if _, captured, err := b.AutoCapture("availability"); captured || err != nil {
		t.Errorf("unarmed AutoCapture: captured=%v err=%v, want no-op", captured, err)
	}
	if _, err := b.CaptureToDir(BundleReasonManual, ""); err == nil {
		t.Error("unarmed CaptureToDir succeeded, want error")
	}
	// Driving the alert to firing must not capture anything either
	// (NewBundler only hooks OnTransition when armed).
	r.s.SampleAt(sloBase)
	r.req.Add(100)
	r.shed.Add(50)
	r.s.SampleAt(sloBase.Add(time.Second))
	if got := captured() - before; got != 0 {
		t.Errorf("%s grew by %d after unarmed firing, want 0", BundlesCaptured, got)
	}
}

// TestBundleConcurrent exercises the capture paths under -race:
// concurrent on-demand writes, auto-captures, sampler ticks and source
// mutation.
func TestBundleConcurrent(t *testing.T) {
	r := bundleFixture(t)
	// A nanosecond cooldown is effectively off: every capture lands.
	b := r.bundler(t, BundlerConfig{Dir: t.TempDir(), Cooldown: time.Nanosecond})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := b.WriteBundle(&buf, BundleReasonManual, ""); err != nil {
				t.Errorf("WriteBundle: %v", err)
			}
			if _, err := ReadBundle(buf.Bytes()); err != nil {
				t.Errorf("ReadBundle: %v", err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r.req.Inc()
			r.s.SampleAt(sloBase.Add(time.Duration(i) * time.Second))
			DefaultModelStats.AddAlpha(AlphaCells{Alpha: [2][2]int64{{1, 0}, {0, 1}}})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, _, err := b.AutoCapture("availability"); err != nil {
				t.Errorf("AutoCapture: %v", err)
			}
		}
	}()
	wg.Wait()
}

// TestReadBundleRejects pins the corrupt-input contract psi-bundle's
// exit code 2 depends on.
func TestReadBundleRejects(t *testing.T) {
	b := bundleFixture(t).bundler(t, BundlerConfig{})
	var buf bytes.Buffer
	if _, err := b.WriteBundle(&buf, BundleReasonManual, ""); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadBundle([]byte("not a zip")); err == nil {
		t.Error("ReadBundle accepted garbage")
	}
	if _, err := ReadBundle(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("ReadBundle accepted a truncated bundle")
	}
	// A zip without a manifest is rejected even though it is valid zip.
	empty := zipWithout(t, buf.Bytes(), ManifestEntry)
	if _, err := ReadBundle(empty); err == nil || !strings.Contains(err.Error(), ManifestEntry) {
		t.Errorf("ReadBundle without manifest: err=%v, want mention of %s", err, ManifestEntry)
	}
}

// zipWithout rebuilds a zip archive dropping one entry.
func zipWithout(t *testing.T, data []byte, drop string) []byte {
	t.Helper()
	a, err := ReadBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, content := range a.Entries {
		if name == drop {
			continue
		}
		f, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(content); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
