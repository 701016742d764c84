package obs

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
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

// Incident forensics: a diagnostic bundle is a schema-versioned zip
// snapshot of everything the debug surface knows — metrics, the
// /seriesz rings, the /alertz state machines, the flight recorder's
// profiles, /modelz, a goroutine dump, a heap profile, the decision-log
// tail and recent access-log entries — so a 3am alert leaves postmortem
// evidence even after the process restarts. The Bundler streams one on
// demand (/debugz/bundle) and captures one to -bundle-dir automatically
// when any SLO objective transitions to firing, with a per-objective
// cooldown and a bounded on-disk retention ring. cmd/psi-bundle opens
// the zip offline and renders the incident report.

// BundleSchemaVersion is stamped into every manifest; readers
// (ReadBundle, cmd/psi-bundle) refuse other versions.
const BundleSchemaVersion = 1

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

// Archive member names. ManifestEntry is always present; the others
// appear when the corresponding source was wired into the Bundler.
const (
	ManifestEntry      = "manifest.json"
	MetricsEntry       = "metrics.json"
	SeriesEntry        = "seriesz.json"
	AlertsEntry        = "alertz.json"
	ProfilesEntry      = "profiles.json"
	ModelEntry         = "modelz.json"
	GoroutinesEntry    = "goroutines.txt"
	HeapEntry          = "heap.pprof"
	DecisionsEntry     = "decisions.jsonl"
	AccessLogEntryName = "access.jsonl"
	WorkloadEntry      = "workload.json"
)

// BundleEntryInfo is one archive member as listed in the manifest.
type BundleEntryInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// BundleManifest is the bundle's self-description: why and when it was
// captured, by which build on which host, and what it contains.
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

	Entries []BundleEntryInfo `json:"entries"`
}

// BundleProfiles is the profiles.json document: the flight recorder's
// two retention sets at capture time.
type BundleProfiles struct {
	Slowest []ProfileData `json:"slowest"`
	Recent  []ProfileData `json:"recent"`
}

// BundlerConfig wires a Bundler's data sources and capture policy. Only
// Registry is required (nil means the Default registry); every other
// source is optional and simply absent from bundles when nil.
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

	Registry *Registry
	Sampler  *Sampler
	Alerts   *SLOSet
	Recorder *Recorder
	// Decisions is the engine's decision log; its in-memory Tail()
	// becomes decisions.jsonl.
	Decisions *DecisionLog
	// Access is the serving-path access ring (usually DefaultAccess).
	Access *AccessRing
	// Workload is the workload-analytics sketch; its snapshot becomes
	// workload.json so incident bundles carry the shape mix that was
	// being served when the alert fired.
	Workload *Workload
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
// machine's firing transitions.
func NewBundler(cfg BundlerConfig) (*Bundler, error) {
	if cfg.Registry == nil {
		cfg.Registry = Default
	}
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
		captured: cfg.Registry.Counter(BundlesCaptured, "diagnostic bundles assembled (streamed at /debugz/bundle or captured to -bundle-dir)"),
		failed:   cfg.Registry.Counter(BundleErrors, "diagnostic bundle captures that failed"),
		sizes:    cfg.Registry.Histogram(BundleBytes, "compressed size of each assembled diagnostic bundle in bytes", CountBuckets),
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
	case err != nil:
		b.logError("bundle capture failed", tr.Objective, err)
	case captured:
		b.logInfo("bundle captured", tr.Objective, path)
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

// Kept returns the on-disk bundles currently retained, oldest first.
func (b *Bundler) Kept() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.kept...)
}

// WriteBundle assembles one bundle and streams it to w, returning the
// compressed byte count. Every data source is snapshotted into memory
// before any zip byte is written, so no obs lock is ever held across
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

func (b *Bundler) writeBundle(w io.Writer, reason, objective string) (int64, error) {
	now := b.cfg.Now()
	payloads, err := b.payloads()
	if err != nil {
		return 0, err
	}
	man := b.manifest(now, reason, objective, payloads)
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return 0, err
	}

	cw := &countingWriter{w: w}
	zw := zip.NewWriter(cw)
	all := append([]bundlePayload{{ManifestEntry, manData}}, payloads...)
	for _, p := range all {
		f, err := zw.CreateHeader(&zip.FileHeader{
			Name:     p.name,
			Method:   zip.Deflate,
			Modified: now,
		})
		if err != nil {
			return cw.n, err
		}
		if _, err := f.Write(p.data); err != nil {
			return cw.n, err
		}
	}
	if err := zw.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// manifest assembles the bundle's self-description.
func (b *Bundler) manifest(now time.Time, reason, objective string, payloads []bundlePayload) BundleManifest {
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
	man.Entries = append(man.Entries, BundleEntryInfo{ManifestEntry, -1})
	for _, p := range payloads {
		man.Entries = append(man.Entries, BundleEntryInfo{p.name, len(p.data)})
	}
	return man
}

// payloads snapshots every wired data source into archive members.
func (b *Bundler) payloads() ([]bundlePayload, error) {
	// The three per-request rings are read back to back, ahead of the
	// dumps that take milliseconds: on a busy server a tail read after the
	// heap profile has moved past every request the profiles name, and the
	// bundle correlates nothing.
	var profs BundleProfiles
	if b.cfg.Recorder != nil {
		for _, p := range b.cfg.Recorder.Slowest() {
			profs.Slowest = append(profs.Slowest, p.Snapshot())
		}
		for _, p := range b.cfg.Recorder.Recent() {
			profs.Recent = append(profs.Recent, p.Snapshot())
		}
	}
	var decisions []DecisionRecord
	if b.cfg.Decisions != nil {
		decisions = b.cfg.Decisions.Tail()
	}
	var access []AccessEntry
	if b.cfg.Access != nil {
		access = b.cfg.Access.Entries()
	}

	var out []bundlePayload
	add := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("obs: bundle %s: %w", name, err)
		}
		out = append(out, bundlePayload{name, data})
		return nil
	}
	if err := add(MetricsEntry, b.cfg.Registry.Snapshot()); err != nil {
		return nil, err
	}
	if b.cfg.Sampler != nil {
		if err := add(SeriesEntry, b.cfg.Sampler.SeriesSnapshot()); err != nil {
			return nil, err
		}
	}
	if b.cfg.Alerts != nil {
		if err := add(AlertsEntry, b.cfg.Alerts.AlertsSnapshot()); err != nil {
			return nil, err
		}
	}
	if b.cfg.Recorder != nil {
		if err := add(ProfilesEntry, profs); err != nil {
			return nil, err
		}
	}
	if err := add(ModelEntry, DefaultModelStats.Snapshot()); err != nil {
		return nil, err
	}
	out = append(out, bundlePayload{GoroutinesEntry, goroutineDump()})
	if heap := heapProfile(); heap != nil {
		out = append(out, bundlePayload{HeapEntry, heap})
	}
	if b.cfg.Decisions != nil {
		data, err := marshalJSONL(decisions)
		if err != nil {
			return nil, err
		}
		out = append(out, bundlePayload{DecisionsEntry, data})
	}
	if b.cfg.Access != nil {
		data, err := marshalJSONL(access)
		if err != nil {
			return nil, err
		}
		out = append(out, bundlePayload{AccessLogEntryName, data})
	}
	if b.cfg.Workload != nil {
		if err := add(WorkloadEntry, b.cfg.Workload.Snapshot()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// marshalJSONL renders a slice as one JSON document per line.
func marshalJSONL[T any](items []T) ([]byte, error) {
	var buf bytes.Buffer
	for _, it := range items {
		data, err := json.Marshal(it)
		if err != nil {
			return nil, err
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// goroutineDump captures every goroutine's stack via runtime.Stack,
// growing the buffer until the dump fits (capped at 64 MiB).
func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		if len(buf) >= 64<<20 {
			return buf
		}
		buf = make([]byte, 2*len(buf))
	}
}

// heapProfile renders the heap profile in pprof format, or nil when the
// runtime cannot produce one.
func heapProfile() []byte {
	p := pprof.Lookup("heap")
	if p == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil
	}
	return buf.Bytes()
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

// countingWriter counts bytes passed through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (b *Bundler) logInfo(msg, objective, path string) {
	if b.cfg.Log != nil {
		b.cfg.Log.Info(msg, "objective", objective, "path", path)
	}
}

func (b *Bundler) logError(msg, objective string, err error) {
	if b.cfg.Log != nil {
		b.cfg.Log.Error(msg, "objective", objective, "err", err.Error())
	}
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
