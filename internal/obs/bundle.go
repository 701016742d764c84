package obs

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Incident forensics: a diagnostic bundle is a schema-versioned zip of
// the JSON documents the debug endpoints serve — /metrics.json,
// /alertz, /profilez, /modelz, /queryz — read in-process through the
// mux that mounts the Bundler, plus a goroutine dump and a heap profile, so a 3am alert
// leaves postmortem evidence even after the process restarts. Each
// entry decodes into the type its endpoint encodes. The Bundler streams
// one on demand (/debugz/bundle) and captures one to -bundle-dir
// automatically when any SLO objective transitions to firing, with a
// per-objective cooldown and a bounded on-disk retention ring.
// cmd/psi-bundle opens the zip offline and renders the incident report.

// BundleSchemaVersion is stamped into every manifest; readers
// (ReadBundle, cmd/psi-bundle) refuse other versions.
const BundleSchemaVersion = 3

// Capture reasons recorded in the manifest.
const (
	// BundleReasonManual marks an on-demand /debugz/bundle download.
	BundleReasonManual = "manual"
	// BundleReasonAlert marks an automatic capture triggered by an SLO
	// objective transitioning to firing.
	BundleReasonAlert = "alert"
	// BundleReasonLoadgen marks a bundle saved by psi-loadgen
	// -bundle-on-fail when one of its gates failed.
	BundleReasonLoadgen = "loadgen-fail"
)

// Archive member names. The manifest and the two dumps are always
// present; an endpoint entry is absent when its endpoint is unarmed
// (answers 503) on the mux the Bundler is mounted on.
const (
	ManifestEntry   = "manifest.json"
	MetricsEntry    = "metrics.json"
	AlertsEntry     = "alertz.json"
	ProfilesEntry   = "profiles.json"
	ModelEntry      = "modelz.json"
	GoroutinesEntry = "goroutines.txt"
	HeapEntry       = "heap.pprof"
	WorkloadEntry   = "workload.json"
)

// BundleManifest is the bundle's self-description: why and when it was
// captured and by which build on which host. The zip directory lists
// what it contains.
type BundleManifest struct {
	Schema     int       `json:"schema"`
	CapturedAt time.Time `json:"captured_at"`
	// Reason is one of the BundleReason* constants; Objective names the
	// firing SLO objective for alert-triggered captures.
	Reason    string `json:"reason"`
	Objective string `json:"objective,omitempty"`

	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	PID           int      `json:"pid"`
	Hostname      string   `json:"hostname,omitempty"`
	Args          []string `json:"args,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Module        string   `json:"module,omitempty"`
	VCSRevision   string   `json:"vcs_revision,omitempty"`
	VCSTime       string   `json:"vcs_time,omitempty"`
	VCSModified   bool     `json:"vcs_modified,omitempty"`
}

// BundlerConfig is a Bundler's capture policy. Its data comes from the
// mux it is mounted on (HandlerConfig.Bundler); every field is optional.
type BundlerConfig struct {
	// Dir is the auto-capture directory; empty leaves the Bundler
	// unarmed: /debugz/bundle still streams on demand, but alert
	// transitions capture nothing and cost nothing.
	Dir string
	// Keep bounds the on-disk retention ring: once more than Keep
	// bundle-*.zip files exist in Dir the oldest are deleted. Default 8.
	Keep int
	// Cooldown is the minimum spacing between automatic captures for
	// the same objective. Default 5m.
	Cooldown time.Duration

	// Alerts, with Dir set, triggers a capture whenever one of its
	// objectives starts firing.
	Alerts *SLOSet
	// Log, when non-nil, gets one line per automatic capture or capture
	// failure.
	Log *slog.Logger
	// Start is the process start time for the manifest's uptime;
	// zero means "when NewBundler ran".
	Start time.Time
	// Now is a test seam for the cooldown clock; nil means time.Now.
	Now func() time.Time
}

// Bundler assembles diagnostic bundles. Construct with NewBundler; it
// is safe for concurrent use (concurrent /debugz/bundle downloads while
// the sampler ticks and alert captures fire).
type Bundler struct {
	cfg      BundlerConfig
	captured *Counter
	failed   *Counter
	sizes    *Histogram

	mu       sync.Mutex
	src      http.Handler         // the mux entries are read through
	lastAuto map[string]time.Time // per-objective cooldown claims
	kept     []string             // on-disk bundles, oldest first
	seq      int                  // capture sequence, disambiguates filenames
}

// Bundle metric names.
const (
	// BundlesCaptured counts successfully assembled bundles (streamed
	// or written to disk).
	BundlesCaptured = "obs_bundles_captured_total"
	// BundleErrors counts failed capture attempts.
	BundleErrors = "obs_bundle_errors_total"
	// BundleBytes observes the compressed size of each bundle.
	BundleBytes = "obs_bundle_bytes"
)

// NewBundler builds a bundler over cfg, scans Dir for bundles left by a
// previous process (they count against Keep), and — when armed with a
// Dir and an SLOSet — hooks automatic capture onto the alert state
// machine's firing transitions. Its own metrics go to Default.
func NewBundler(cfg BundlerConfig) (*Bundler, error) {
	if cfg.Keep <= 0 {
		cfg.Keep = 8
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Minute
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Bundler{
		cfg:      cfg,
		captured: Default.Counter(BundlesCaptured, "diagnostic bundles assembled (streamed at /debugz/bundle or captured to -bundle-dir)"),
		failed:   Default.Counter(BundleErrors, "diagnostic bundle captures that failed"),
		sizes:    Default.Histogram(BundleBytes, "compressed size of each assembled diagnostic bundle in bytes", CountBuckets),
		lastAuto: make(map[string]time.Time),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("obs: bundler: %w", err)
		}
		existing, err := filepath.Glob(filepath.Join(cfg.Dir, "bundle-*.zip"))
		if err != nil {
			return nil, fmt.Errorf("obs: bundler: %w", err)
		}
		sort.Strings(existing) // filenames embed a fixed-width UTC timestamp
		b.kept = existing
		if cfg.Alerts != nil {
			cfg.Alerts.OnTransition(b.handleTransition)
		}
	}
	return b, nil
}

// Armed reports whether automatic alert-triggered capture is on (a
// -bundle-dir was configured).
func (b *Bundler) Armed() bool { return b.cfg.Dir != "" }

// handleTransition is the SLOSet hook: any objective entering firing
// triggers a capture, subject to the per-objective cooldown.
func (b *Bundler) handleTransition(tr Transition) {
	if tr.To != StateFiring {
		return
	}
	path, captured, err := b.AutoCapture(tr.Objective)
	switch {
	case b.cfg.Log == nil:
	case err != nil:
		b.cfg.Log.Error("bundle capture failed", "objective", tr.Objective, "err", err.Error())
	case captured:
		b.cfg.Log.Info("bundle captured", "objective", tr.Objective, "path", path)
	}
}

// AutoCapture captures one alert-triggered bundle for the objective
// unless a capture for it ran within the cooldown window. Returns the
// bundle path and whether a capture actually happened (false, nil when
// suppressed by the cooldown).
func (b *Bundler) AutoCapture(objective string) (string, bool, error) {
	if !b.Armed() {
		return "", false, nil
	}
	now := b.cfg.Now()
	b.mu.Lock()
	if last, ok := b.lastAuto[objective]; ok && now.Sub(last) < b.cfg.Cooldown {
		b.mu.Unlock()
		return "", false, nil
	}
	// Claim the cooldown slot before the (slow) capture so a concurrent
	// transition for the same objective cannot double-capture.
	b.lastAuto[objective] = now
	b.mu.Unlock()
	path, err := b.CaptureToDir(BundleReasonAlert, objective)
	if err != nil {
		return "", false, err
	}
	return path, true, nil
}

// bundleTimeFormat renders capture times into filenames: fixed-width
// UTC down to nanoseconds, so lexicographic filename order is capture
// order.
const bundleTimeFormat = "20060102T150405.000000000Z"

// CaptureToDir assembles one bundle into Dir (written to a temp file
// and renamed, so readers never see a partial zip), then enforces the
// Keep retention ring by deleting the oldest bundles.
func (b *Bundler) CaptureToDir(reason, objective string) (string, error) {
	if !b.Armed() {
		return "", errors.New("obs: bundler: no bundle directory configured")
	}
	now := b.cfg.Now()
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	label := objective
	if label == "" {
		label = reason
	}
	name := fmt.Sprintf("bundle-%s-%03d-%s.zip",
		now.UTC().Format(bundleTimeFormat), seq%1000, sanitizeLabel(label))
	path := filepath.Join(b.cfg.Dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		b.failed.Inc()
		return "", fmt.Errorf("obs: bundler: %w", err)
	}
	_, werr := b.WriteBundle(f, reason, objective)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("obs: bundler: %w", werr)
	}

	var evict []string
	b.mu.Lock()
	b.kept = append(b.kept, path)
	for len(b.kept) > b.cfg.Keep {
		evict = append(evict, b.kept[0])
		b.kept = b.kept[1:]
	}
	b.mu.Unlock()
	for _, old := range evict { // outside the lock: file I/O
		_ = os.Remove(old)
	}
	return path, nil
}

// WriteBundle assembles one bundle in memory and writes it to w,
// returning the compressed byte count. No obs lock is ever held across
// I/O. Updates the obs_bundles_* metrics.
func (b *Bundler) WriteBundle(w io.Writer, reason, objective string) (int64, error) {
	n, err := b.writeBundle(w, reason, objective)
	if err != nil {
		b.failed.Inc()
		return n, err
	}
	b.captured.Inc()
	b.sizes.Observe(float64(n))
	return n, nil
}

// bundlePayload is one assembled archive member.
type bundlePayload struct {
	name string
	data []byte
}

// bundleEndpoints maps each JSON archive member to the endpoint that
// serves it.
var bundleEndpoints = []struct{ entry, path string }{
	{ProfilesEntry, "/profilez?format=json"},
	{ModelEntry, "/modelz?format=json"},
	{MetricsEntry, "/metrics.json"},
	{AlertsEntry, "/alertz?format=json"},
	{WorkloadEntry, "/queryz?format=json"},
}

// setSource points the bundler at the mux it reads its entries
// through; Handler calls it when it mounts the bundler.
func (b *Bundler) setSource(h http.Handler) {
	b.mu.Lock()
	b.src = h
	b.mu.Unlock()
}

func (b *Bundler) writeBundle(w io.Writer, reason, objective string) (int64, error) {
	now := b.cfg.Now()
	payloads, err := b.fetchEntries()
	if err != nil {
		return 0, err
	}
	man := b.manifest(now, reason, objective)
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return 0, err
	}

	var zipped bytes.Buffer
	zw := zip.NewWriter(&zipped)
	for _, p := range append([]bundlePayload{{ManifestEntry, manData}}, payloads...) {
		f, err := zw.CreateHeader(&zip.FileHeader{Name: p.name, Method: zip.Deflate, Modified: now})
		if err == nil {
			_, err = f.Write(p.data)
		}
		if err != nil {
			return 0, err
		}
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	n, err := w.Write(zipped.Bytes())
	return int64(n), err
}

// manifest assembles the bundle's self-description.
func (b *Bundler) manifest(now time.Time, reason, objective string) BundleManifest {
	man := BundleManifest{
		Schema:        BundleSchemaVersion,
		CapturedAt:    now.UTC(),
		Reason:        reason,
		Objective:     objective,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		PID:           os.Getpid(),
		Args:          os.Args,
		UptimeSeconds: now.Sub(b.cfg.Start).Seconds(),
	}
	if host, err := os.Hostname(); err == nil {
		man.Hostname = host
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		man.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				man.VCSRevision = s.Value
			case "vcs.time":
				man.VCSTime = s.Value
			case "vcs.modified":
				man.VCSModified = s.Value == "true"
			}
		}
	}
	return man
}

// fetchEntries reads every endpoint document through the mounted mux,
// leaving out the endpoints that answer 503 (unarmed), then appends the
// goroutine and heap dumps straight from runtime/pprof — a serving
// listener answers /debug/pprof with 403.
func (b *Bundler) fetchEntries() ([]bundlePayload, error) {
	b.mu.Lock()
	src := b.src
	b.mu.Unlock()
	var out []bundlePayload
	for _, e := range bundleEndpoints {
		if src == nil {
			break
		}
		req, err := http.NewRequest(http.MethodGet, e.path, nil)
		if err != nil {
			return nil, err
		}
		rw := &entryWriter{header: http.Header{}}
		src.ServeHTTP(rw, req)
		switch rw.code {
		case http.StatusOK:
			out = append(out, bundlePayload{e.entry, rw.body.Bytes()})
		case http.StatusServiceUnavailable:
		default:
			return nil, fmt.Errorf("obs: bundle %s: GET %s answered %d", e.entry, e.path, rw.code)
		}
	}
	for _, d := range []struct {
		entry, profile string
		debug          int
	}{{GoroutinesEntry, "goroutine", 2}, {HeapEntry, "heap", 0}} {
		var buf bytes.Buffer
		if err := pprof.Lookup(d.profile).WriteTo(&buf, d.debug); err != nil {
			return nil, fmt.Errorf("obs: bundle %s: %w", d.entry, err)
		}
		out = append(out, bundlePayload{d.entry, buf.Bytes()})
	}
	return out, nil
}

// entryWriter is the in-process http.ResponseWriter fetchEntries reads an
// endpoint through.
type entryWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *entryWriter) Header() http.Header { return w.header }

func (w *entryWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *entryWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// sanitizeLabel maps an objective or reason into a filename-safe slug.
func sanitizeLabel(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
		if sb.Len() >= 40 {
			break
		}
	}
	if sb.Len() == 0 {
		return "bundle"
	}
	return sb.String()
}

// maxBundleEntryBytes caps one archive member on read, so a corrupted
// or hostile bundle cannot balloon memory.
const maxBundleEntryBytes = 64 << 20

// BundleArchive is a fully read diagnostic bundle: the parsed manifest
// plus every member's raw bytes (manifest.json included).
type BundleArchive struct {
	Manifest BundleManifest
	Entries  map[string][]byte
}

// Entry returns a member's bytes, or an error naming what is missing.
func (a *BundleArchive) Entry(name string) ([]byte, error) {
	data, ok := a.Entries[name]
	if !ok {
		return nil, fmt.Errorf("bundle has no %q entry", name)
	}
	return data, nil
}

// ReadBundle parses a diagnostic bundle from memory, validating that it
// is a well-formed zip with a schema-compatible manifest.
func ReadBundle(data []byte) (*BundleArchive, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("obs: bundle: not a zip archive: %w", err)
	}
	a := &BundleArchive{Entries: make(map[string][]byte, len(zr.File))}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("obs: bundle %s: %w", f.Name, err)
		}
		content, err := io.ReadAll(io.LimitReader(rc, maxBundleEntryBytes+1))
		cerr := rc.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("obs: bundle %s: %w", f.Name, err)
		}
		if len(content) > maxBundleEntryBytes {
			return nil, fmt.Errorf("obs: bundle %s: entry exceeds %d bytes", f.Name, maxBundleEntryBytes)
		}
		a.Entries[f.Name] = content
	}
	manData, ok := a.Entries[ManifestEntry]
	if !ok {
		return nil, fmt.Errorf("obs: bundle: no %s entry", ManifestEntry)
	}
	if err := json.Unmarshal(manData, &a.Manifest); err != nil {
		return nil, fmt.Errorf("obs: bundle manifest: %w", err)
	}
	if a.Manifest.Schema != BundleSchemaVersion {
		return nil, fmt.Errorf("obs: bundle manifest schema %d, this reader handles %d",
			a.Manifest.Schema, BundleSchemaVersion)
	}
	return a, nil
}

// ReadBundleFile opens path and parses it with ReadBundle.
func ReadBundleFile(path string) (*BundleArchive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	return ReadBundle(data)
}
