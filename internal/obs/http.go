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

// HandlerConfig arms the optional routes of the mux Handler builds. A
// nil field leaves its route answering 503.
type HandlerConfig struct {
	Alerts *SLOSet // /alertz
	// Bundler serves /debugz/bundle and reads its entries through the
	// mux it is mounted on, so a bundle holds what this mux serves.
	Bundler  *Bundler
	Workload *Workload // /queryz
	// Pprof mounts /debug/pprof/*. A debug-only listener
	// (StartDebugServer) sets it; a serving listener leaves it off
	// unless the operator opted in (psi-serve -expose-pprof), because
	// pprof's CPU profile and symbol endpoints hand out process
	// internals and can degrade the serving path. When off, the routes
	// answer 403 with a pointer at the flag.
	Pprof bool
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
//	/queryz             workload analytics (Workload): shapes ranked
//	                    by aggregate cost with a cache-win estimate,
//	                    ?format=json for the schema-1 document
//	/modelz             model-decision telemetry: model-α confusion matrix,
//	                    model-β top-1 share against the training sweeps
//	                    (?format=json for JSON)
//	/alertz             SLO burn-rate alerts (Alerts): text table naming
//	                    the bad counters behind a burn, ?format=json for
//	                    machine consumption
//	/debugz/bundle      download a diagnostic bundle (Bundler):
//	                    a zip of the JSON documents above plus goroutine/
//	                    heap dumps; inspect offline with cmd/psi-bundle
//	/debug/pprof/       the standard net/http/pprof handlers
//	                    (gated by Pprof)
func Handler(reg *Registry, recorder *Recorder, hc HandlerConfig) http.Handler {
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
	mux.HandleFunc("/alertz", func(w http.ResponseWriter, req *http.Request) {
		if hc.Alerts == nil {
			http.Error(w, "SLO alerting disabled (start with -sample-interval > 0 and an SLO objective)",
				http.StatusServiceUnavailable)
			return
		}
		d := hc.Alerts.AlertsSnapshot()
		serveDoc(w, req.URL.Query().Get("format") == "json", d, d.WriteText)
	})
	mux.HandleFunc("/queryz", func(w http.ResponseWriter, req *http.Request) {
		if hc.Workload == nil {
			http.Error(w, "workload analytics disabled (start psi-serve with -workload-topk > 0)",
				http.StatusServiceUnavailable)
			return
		}
		d := hc.Workload.Snapshot()
		serveDoc(w, req.URL.Query().Get("format") == "json", d, d.WriteText)
	})
	mux.HandleFunc("/debugz/bundle", func(w http.ResponseWriter, req *http.Request) {
		if hc.Bundler == nil {
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
		_, _ = hc.Bundler.WriteBundle(w, BundleReasonManual, "")
	})
	if hc.Pprof {
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
	if hc.Bundler != nil {
		hc.Bundler.setSource(mux)
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
	srv := &http.Server{Handler: Handler(Default, DefaultRecorder, HandlerConfig{Pprof: true})}
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
