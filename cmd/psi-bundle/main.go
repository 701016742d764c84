// Command psi-bundle inspects diagnostic bundles captured by psi-serve
// (auto-captured to -bundle-dir when an SLO alert fires, pulled
// manually from /debugz/bundle, or saved by psi-loadgen
// -bundle-on-fail). It turns the zip of endpoint documents into a
// readable incident report: what was firing, how fast the error budget
// was burning, what the series the SLO objectives and Retry-After read
// looked like leading up to capture, which requests were slow, which
// shapes cost the most, and which request IDs can be followed from a
// profile into the model-β records /modelz keeps (its recent list).
//
// Usage:
//
//	psi-bundle report bundle.zip                 # text incident report
//	psi-bundle report -json bundle.zip           # machine-readable report
//	psi-bundle report -require-correlation b.zip # fail unless >= 1 request
//	                                             # ID appears in both a
//	                                             # profile and modelz.json's
//	                                             # recent decisions (CI gate)
//	psi-bundle list bundle.zip                   # entries with sizes
//	psi-bundle cat bundle.zip manifest.json      # raw entry to stdout
//
// Exit status: 0 on success, 1 on usage errors or failed assertions
// (-require-correlation), 2 when the bundle is corrupt, truncated, or
// has an unsupported schema — distinct so CI can tell "the incident
// data is bad" from "the incident data disproves the assertion".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes, per the package doc.
const (
	exitOK      = 0
	exitFail    = 1 // usage error or failed assertion
	exitCorrupt = 2 // unreadable / truncated / wrong-schema bundle
)

// run is the testable entry point: parses the subcommand and
// dispatches. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return exitFail
	}
	switch args[0] {
	case "report":
		return cmdReport(args[1:], stdout, stderr)
	case "list":
		return cmdList(args[1:], stdout, stderr)
	case "cat":
		return cmdCat(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return exitOK
	default:
		_, _ = fmt.Fprintf(stderr, "psi-bundle: unknown subcommand %q\n", args[0])
		usage(stderr)
		return exitFail
	}
}

func usage(w io.Writer) {
	_, _ = fmt.Fprint(w, `usage:
  psi-bundle report [-json] [-require-correlation] BUNDLE.zip
  psi-bundle list BUNDLE.zip
  psi-bundle cat BUNDLE.zip ENTRY

exit: 0 ok, 1 usage/assertion failure, 2 corrupt or unreadable bundle
`)
}

// open reads and validates the bundle, mapping read failures to the
// corrupt exit code.
func open(path string, stderr io.Writer) (*obs.BundleArchive, int) {
	a, err := obs.ReadBundleFile(path)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "psi-bundle: %s: %v\n", path, err)
		return nil, exitCorrupt
	}
	return a, exitOK
}

// cmdList prints the manifest's entry table.
func cmdList(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		_, _ = fmt.Fprintln(stderr, "psi-bundle: list takes exactly one bundle path")
		return exitFail
	}
	a, code := open(args[0], stderr)
	if code != exitOK {
		return code
	}
	_, _ = fmt.Fprintf(stdout, "%s  schema %d  reason %s  captured %s\n",
		args[0], a.Manifest.Schema, a.Manifest.Reason, a.Manifest.CapturedAt.Format(time.RFC3339))
	for _, e := range a.Manifest.Entries {
		_, _ = fmt.Fprintf(stdout, "  %9d  %s\n", len(a.Entries[e.Name]), e.Name)
	}
	return exitOK
}

// cmdCat writes one raw entry to stdout (for piping into jq or
// jsoncheck).
func cmdCat(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		_, _ = fmt.Fprintln(stderr, "psi-bundle: cat takes a bundle path and an entry name")
		return exitFail
	}
	a, code := open(args[0], stderr)
	if code != exitOK {
		return code
	}
	data, err := a.Entry(args[1])
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "psi-bundle: %v\n", err)
		return exitFail
	}
	_, _ = stdout.Write(data)
	return exitOK
}

// cmdReport renders the incident report.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the report as a JSON document")
	requireCorr := fs.Bool("require-correlation", false,
		"exit 1 unless at least one request ID appears in both a captured profile and modelz.json's recent decisions")
	if err := fs.Parse(args); err != nil {
		return exitFail
	}
	if fs.NArg() != 1 {
		_, _ = fmt.Fprintln(stderr, "psi-bundle: report takes exactly one bundle path")
		return exitFail
	}
	a, code := open(fs.Arg(0), stderr)
	if code != exitOK {
		return code
	}
	rep, err := buildReport(a)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "psi-bundle: %s: %v\n", fs.Arg(0), err)
		return exitCorrupt
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			_, _ = fmt.Fprintf(stderr, "psi-bundle: %v\n", err)
			return exitFail
		}
	} else {
		writeText(stdout, rep)
	}
	if *requireCorr && len(rep.Correlated) == 0 {
		_, _ = fmt.Fprintln(stderr, "psi-bundle: -require-correlation: no request ID appears in both a captured profile and modelz.json's recent decisions")
		return exitFail
	}
	return exitOK
}

// reportDoc is the -json report document and the input of the text
// renderer. Alerts, Slowest and Workload are the obs documents the
// bundle's entries decode into (Workload cut to its top shapes).
type reportDoc struct {
	Schema    int                `json:"schema"`
	Bundle    obs.BundleManifest `json:"manifest"`
	Alerts    obs.AlertsData     `json:"alerts"`
	Series    []seriesLine       `json:"series,omitempty"`
	Slowest   []obs.ProfileData  `json:"slowest,omitempty"`
	Workload  *obs.WorkloadData  `json:"workload,omitempty"`
	Decisions decisionSummary    `json:"decisions"`
	// Correlated are the request IDs present in both a captured profile
	// and a recent decision record, sorted.
	Correlated []string `json:"correlated_request_ids"`
}

// seriesLine is one rendered sparkline: a metric's recent trajectory.
type seriesLine struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "rate" or "p99"
	Last  float64 `json:"last"`
	Spark string  `json:"spark"`
}

// decisionSummary aggregates modelz.json's recent model-β records.
type decisionSummary struct {
	Records    int              `json:"records"`
	Kinds      map[string]int64 `json:"kinds,omitempty"`
	RequestIDs int              `json:"request_ids"`
}

// topShapes bounds the workload rows the report keeps.
const topShapes = 5

// buildReport decodes every JSON entry into the obs type its endpoint
// encodes and assembles the report document. A missing entry (its
// endpoint was unarmed) is skipped; one that does not parse makes the
// bundle corrupt for the caller.
func buildReport(a *obs.BundleArchive) (*reportDoc, error) {
	var (
		metrics  obs.Snapshot
		series   obs.SeriesData
		profiles obs.ProfilesData
		model    obs.ModelStatsData
		rep      = &reportDoc{Schema: 2, Bundle: a.Manifest}
	)
	for name, doc := range map[string]any{
		obs.MetricsEntry:  &metrics,
		obs.SeriesEntry:   &series,
		obs.AlertsEntry:   &rep.Alerts,
		obs.ProfilesEntry: &profiles,
		obs.ModelEntry:    &model,
		obs.WorkloadEntry: &rep.Workload,
	} {
		data, err := a.Entry(name)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, doc); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	rep.Series = renderSeries(series)
	rep.Slowest = profiles.Slowest
	if wl := rep.Workload; wl != nil && len(wl.Shapes) > topShapes {
		wl.Shapes = wl.Shapes[:topShapes]
	}
	rep.Decisions = summarizeDecisions(model.Recent)
	rep.Correlated = correlate(profiles, model.Recent)
	return rep, nil
}

// renderSeries turns the bundle's ring snapshots into sparklines: the
// per-step rate of every counter and the per-step p99 of every
// histogram the sampler kept. Series with fewer than two samples are
// skipped.
func renderSeries(s obs.SeriesData) []seriesLine {
	var out []seriesLine
	for _, c := range s.Counters {
		if len(c.Rates) > 0 {
			out = append(out, seriesLine{
				Name: c.Name, Kind: "rate",
				Last:  c.Rates[len(c.Rates)-1],
				Spark: spark(c.Rates),
			})
		}
	}
	for _, h := range s.Histograms {
		if len(h.P99) > 0 {
			out = append(out, seriesLine{
				Name: h.Name + "_p99", Kind: "p99",
				Last:  h.P99[len(h.P99)-1],
				Spark: spark(h.P99),
			})
		}
	}
	return out
}

// sparkRunes maps a normalised [0,1] value to a bar glyph.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a unicode sparkline, normalised to the
// series' own min..max; missing values (NaN or negative quantiles from
// empty steps) render as spaces.
func spark(vals []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || v < 0 {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi {
		return ""
	}
	out := make([]rune, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) || v < 0 {
			out = append(out, ' ')
			continue
		}
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out = append(out, sparkRunes[i])
	}
	return string(out)
}

// summarizeDecisions aggregates the recent decisions by kind and
// distinct request ID.
func summarizeDecisions(recs []obs.DecisionRecord) decisionSummary {
	sum := decisionSummary{Records: len(recs)}
	ids := map[string]bool{}
	for _, r := range recs {
		if sum.Kinds == nil {
			sum.Kinds = map[string]int64{}
		}
		sum.Kinds[r.Kind]++
		if r.RequestID != "" {
			ids[r.RequestID] = true
		}
	}
	sum.RequestIDs = len(ids)
	return sum
}

// correlate returns the request IDs seen both by a captured profile (the
// serving view) and by a recent decision record (the model view),
// sorted: the requests an operator can follow end to end.
func correlate(profiles obs.ProfilesData, decisions []obs.DecisionRecord) []string {
	profiled := map[string]bool{}
	for _, set := range [][]obs.ProfileData{profiles.Slowest, profiles.Recent} {
		for _, p := range set {
			profiled[p.RequestID] = p.RequestID != ""
		}
	}
	var out []string
	for _, d := range decisions {
		if profiled[d.RequestID] {
			out = append(out, d.RequestID)
			profiled[d.RequestID] = false
		}
	}
	sort.Strings(out)
	return out
}

// writeText renders the human-readable incident report. Write errors
// on the report stream are not actionable and are discarded.
func writeText(w io.Writer, rep *reportDoc) {
	m := rep.Bundle
	_, _ = fmt.Fprintf(w, "incident bundle  schema %d  reason %s", m.Schema, m.Reason)
	if m.Objective != "" {
		_, _ = fmt.Fprintf(w, "  objective %s", m.Objective)
	}
	_, _ = fmt.Fprintln(w)
	_, _ = fmt.Fprintf(w, "captured %s  uptime %.1fs  pid %d  host %s\n",
		m.CapturedAt.Format(time.RFC3339), m.UptimeSeconds, m.PID, m.Hostname)
	_, _ = fmt.Fprintf(w, "%s %s/%s  gomaxprocs %d", m.GoVersion, m.GOOS, m.GOARCH, m.GOMAXPROCS)
	if m.VCSRevision != "" {
		rev := m.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		_, _ = fmt.Fprintf(w, "  rev %s", rev)
		if m.VCSModified {
			_, _ = fmt.Fprint(w, "+dirty")
		}
	}
	_, _ = fmt.Fprintln(w)

	if len(rep.Alerts.Alerts) > 0 {
		_, _ = fmt.Fprintln(w)
		_ = rep.Alerts.WriteText(w)
	}

	if len(rep.Series) > 0 {
		_, _ = fmt.Fprintln(w, "\nseries (oldest -> newest)")
		for _, s := range rep.Series {
			_, _ = fmt.Fprintf(w, "  %-28s %-5s %s  last %.4g\n", s.Name, s.Kind, s.Spark, s.Last)
		}
	}

	if len(rep.Slowest) > 0 {
		_, _ = fmt.Fprintln(w, "\nslowest profiles")
		for _, p := range rep.Slowest {
			_, _ = fmt.Fprintf(w, "  %8.2fms  %-10s %s", float64(p.DurationNanos)/1e6, p.Method, p.Name)
			if p.RequestID != "" {
				_, _ = fmt.Fprintf(w, "  req %s", p.RequestID)
			}
			f := obs.FunnelTotals(p.Funnel...)
			_, _ = fmt.Fprintf(w, "\n             funnel generated %d > deg-ok %d > sig-ok %d > recursed %d > matched %d; bindings %d\n",
				f.Generated, f.DegOK, f.SigOK, f.Recursed, f.Matched, p.Bindings)
		}
	}

	if rep.Workload != nil {
		_, _ = fmt.Fprintf(w, "\ntop shapes by cost (/queryz at capture, first %d)\n", topShapes)
		_ = rep.Workload.WriteText(w)
	}

	_, _ = fmt.Fprintf(w, "\nrecent decisions: %d records, %d distinct request IDs", rep.Decisions.Records, rep.Decisions.RequestIDs)
	if len(rep.Decisions.Kinds) > 0 {
		kinds := make([]string, 0, len(rep.Decisions.Kinds))
		for k := range rep.Decisions.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s %d", k, rep.Decisions.Kinds[k])
		}
		_, _ = fmt.Fprintf(w, " (%s)", strings.Join(parts, ", "))
	}
	_, _ = fmt.Fprintln(w)

	if len(rep.Correlated) > 0 {
		_, _ = fmt.Fprintln(w, "\ncorrelated request IDs (in a profile and in the recent decisions)")
		shown := min(len(rep.Correlated), 10)
		for _, id := range rep.Correlated[:shown] {
			_, _ = fmt.Fprintf(w, "  %s\n", id)
		}
		if len(rep.Correlated) > shown {
			_, _ = fmt.Fprintf(w, "  ... and %d more\n", len(rep.Correlated)-shown)
		}
	} else {
		_, _ = fmt.Fprintln(w, "\nno correlated request IDs (only a query that trains model β files decision records; a warm or small query files none)")
	}
}
