package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// HandlerOption customises the debug mux returned by Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	sampler  *Sampler
	alerts   *SLOSet
	bundler  *Bundler
	workload *Workload
	pprof    bool
}

// WithSampler mounts /seriesz over the given sampler's rings. Without
// it /seriesz answers 503.
func WithSampler(s *Sampler) HandlerOption {
	return func(c *handlerConfig) { c.sampler = s }
}

// WithAlerts mounts /alertz over the given SLO set. Without it /alertz
// answers 503.
func WithAlerts(a *SLOSet) HandlerOption {
	return func(c *handlerConfig) { c.alerts = a }
}

// WithBundler mounts /debugz/bundle: a GET streams a freshly assembled
// diagnostic bundle. The bundler reads its entries through the mux
// Handler builds, so a bundle holds what this mux serves. Without it (or
// with nil) the route answers 503.
func WithBundler(b *Bundler) HandlerOption {
	return func(c *handlerConfig) { c.bundler = b }
}

// WithWorkload mounts /queryz over the given workload sketch. Without
// it (or with nil) /queryz answers 503.
func WithWorkload(w *Workload) HandlerOption {
	return func(c *handlerConfig) { c.workload = w }
}

// WithPprof controls whether /debug/pprof/* is mounted. The default is
// on — a debug-only listener (StartDebugServer) should expose the full
// surface — but a mux mounted on a serving listener should pass false
// unless the operator opted in (psi-serve -expose-pprof): pprof's CPU
// profile and symbol endpoints hand out process internals and can
// degrade the serving path. When off, the routes answer 403 with a
// pointer at the flag.
func WithPprof(on bool) HandlerOption {
	return func(c *handlerConfig) { c.pprof = on }
}

// Handler returns the debug mux over a registry and profile flight
// recorder:
//
//	/metrics            Prometheus text exposition
//	/metrics.json       JSON snapshot of the registry
//	/profilez           flight recorder: K slowest + K most recent profiles
//	/profilez?id=N      one profile as an EXPLAIN ANALYZE text tree
//	/profilez?request_id=X  the profile recorded for one served request
//	/profilez?fingerprint=X the most recent profile of one query shape
//	/profilez?format=json  the same data as JSON (combinable with lookups)
//	/queryz             workload analytics (WithWorkload): shapes ranked
//	                    by aggregate cost with a cache-win estimate,
//	                    ?format=json for the schema-1 document
//	/modelz             model-decision telemetry: model-α confusion matrix
//	                    and vote-margin calibration, model-β top-1 share
//	                    against the training sweeps
//	/modelz?format=json the same data as JSON, plus the last
//	                    RecentDecisions model-β records ("recent")
//	/seriesz            windowed time series (WithSampler): the rings of
//	                    the series the window readers keep, as JSON
//	/alertz             SLO burn-rate alerts (WithAlerts): text table,
//	                    ?format=json for machine consumption
//	/debugz/bundle      download a diagnostic bundle (WithBundler):
//	                    a zip of the JSON documents above plus goroutine/
//	                    heap dumps; inspect offline with cmd/psi-bundle
//	/debug/pprof/       the standard net/http/pprof handlers
//	                    (gated by WithPprof; on by default)
func Handler(reg *Registry, recorder *Recorder, opts ...HandlerOption) http.Handler {
	hc := handlerConfig{pprof: true}
	for _, o := range opts {
		o(&hc)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // an error means the client went away
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		serveDoc(w, true, reg.Snapshot(), nil)
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, req *http.Request) {
		asJSON := req.URL.Query().Get("format") == "json"
		idStr, reqID := req.URL.Query().Get("id"), req.URL.Query().Get("request_id")
		fp := req.URL.Query().Get("fingerprint")
		if idStr == "" && reqID == "" && fp == "" {
			var d ProfilesData
			for _, p := range recorder.Slowest() {
				d.Slowest = append(d.Slowest, p.Snapshot())
			}
			for _, p := range recorder.Recent() {
				d.Recent = append(d.Recent, p.Snapshot())
			}
			serveDoc(w, asJSON, d, d.WriteText)
			return
		}
		var p *Profile
		switch {
		case idStr != "":
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			p = recorder.Lookup(id)
		case reqID != "":
			p = recorder.LookupRequest(reqID)
		default:
			p = recorder.LookupFingerprint(fp)
		}
		if p == nil {
			http.Error(w, "profile not retained", http.StatusNotFound)
			return
		}
		d := p.Snapshot()
		serveDoc(w, asJSON, d, d.WriteText)
	})
	mux.HandleFunc("/modelz", func(w http.ResponseWriter, req *http.Request) {
		d := DefaultModelStats.Snapshot()
		serveDoc(w, req.URL.Query().Get("format") == "json", d, d.WriteText)
	})
	mux.HandleFunc("/seriesz", func(w http.ResponseWriter, req *http.Request) {
		if hc.sampler == nil {
			http.Error(w, "time-series sampling disabled (start with -sample-interval > 0)",
				http.StatusServiceUnavailable)
			return
		}
		serveDoc(w, true, hc.sampler.SeriesSnapshot(), nil)
	})
	mux.HandleFunc("/alertz", func(w http.ResponseWriter, req *http.Request) {
		if hc.alerts == nil {
			http.Error(w, "SLO alerting disabled (start with -sample-interval > 0 and an SLO objective)",
				http.StatusServiceUnavailable)
			return
		}
		d := hc.alerts.AlertsSnapshot()
		serveDoc(w, req.URL.Query().Get("format") == "json", d, d.WriteText)
	})
	mux.HandleFunc("/queryz", func(w http.ResponseWriter, req *http.Request) {
		if hc.workload == nil {
			http.Error(w, "workload analytics disabled (start psi-serve with -workload-topk > 0)",
				http.StatusServiceUnavailable)
			return
		}
		d := hc.workload.Snapshot()
		serveDoc(w, req.URL.Query().Get("format") == "json", d, d.WriteText)
	})
	mux.HandleFunc("/debugz/bundle", func(w http.ResponseWriter, req *http.Request) {
		if hc.bundler == nil {
			http.Error(w, "diagnostic bundles not configured on this listener",
				http.StatusServiceUnavailable)
			return
		}
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		name := fmt.Sprintf("bundle-%s-manual.zip", time.Now().UTC().Format("20060102T150405Z"))
		w.Header().Set("Content-Type", "application/zip")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
		// On an error the 200 is already promised; the client gets an
		// empty or truncated zip, which ReadBundle rejects.
		_, _ = hc.bundler.WriteBundle(w, BundleReasonManual, "")
	})
	if hc.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	} else {
		mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, req *http.Request) {
			http.Error(w, "pprof is disabled on this listener (start psi-serve with -expose-pprof, or use a dedicated -debug-addr listener)",
				http.StatusForbidden)
		})
	}
	if hc.bundler != nil {
		hc.bundler.setSource(mux)
	}
	return mux
}

// ProfilesData is the /profilez?format=json document (and a bundle's
// profiles.json): the flight recorder's two retention sets.
type ProfilesData struct {
	Slowest []ProfileData `json:"slowest"`
	Recent  []ProfileData `json:"recent"`
}

// serveDoc writes an endpoint's document: its indented JSON encoding,
// or with asJSON false its text rendering. A write error means the
// client went away mid-response; there is nothing to act on.
func serveDoc(w http.ResponseWriter, asJSON bool, doc any, text func(io.Writer) error) {
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = text(w)
}

// WriteText renders the /profilez flight-recorder tables.
func (d ProfilesData) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "query-profile flight recorder; fetch one with /profilez?id=N (add &format=json for JSON)\n")
	writeProfileTable(&buf, "slowest finished profiles", d.Slowest)
	writeProfileTable(&buf, "most recent profiles (newest first)", d.Recent)
	_, err := w.Write(buf.Bytes())
	return err
}

// writeProfileTable renders one flight-recorder section as an aligned
// text table.
func writeProfileTable(buf *bytes.Buffer, title string, profiles []ProfileData) {
	fmt.Fprintf(buf, "\n%s\n", title)
	fmt.Fprintf(buf, "%6s  %-24s  %-12s  %-22s  %10s  %8s  %s\n",
		"ID", "NAME", "DURATION", "METHOD", "CANDIDATES", "BINDINGS", "LADDER (entered r1/r2/r3)")
	for _, d := range profiles {
		state := "live"
		if d.Finished {
			state = d.Duration().Round(time.Microsecond).String()
		}
		var ladder [NumLadderRungs]int64
		for i, r := range d.Ladder {
			if i < NumLadderRungs {
				ladder[i] = r.Entered
			}
		}
		fmt.Fprintf(buf, "%6d  %-24s  %-12s  %-22s  %10d  %8d  %d/%d/%d\n",
			d.ID, d.Name, state, orDash(d.Method), d.Candidates, d.Bindings,
			ladder[0], ladder[1], ladder[2])
	}
}

// StartDebugServer enables collection and serves the default registry
// and flight recorder (plus pprof) on addr, returning the bound address (useful
// with ":0") and a close function that shuts the server down and waits
// for the serve goroutine to exit. The cmd binaries call this from
// their -debug-addr flag.
func StartDebugServer(addr string) (boundAddr string, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug server: %w", err)
	}
	Enable(true)
	srv := &http.Server{Handler: Handler(Default, DefaultRecorder)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	closeFn = func() error {
		cerr := srv.Close()
		if serr := <-done; serr != nil && serr != http.ErrServerClosed && cerr == nil {
			cerr = serr
		}
		return cerr
	}
	return ln.Addr().String(), closeFn, nil
}
