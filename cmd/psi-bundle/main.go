// Command psi-bundle inspects diagnostic bundles captured by psi-serve
// (auto-captured to -bundle-dir when an SLO alert fires, pulled
// manually from /debugz/bundle, or saved by psi-loadgen
// -bundle-on-fail). It turns the zip of endpoint documents into a
// readable incident report: what was firing, how fast the error budget
// was burning and which bad counter burned it, which requests were slow
// (each with its request ID and model-β tally), and which shapes cost
// the most.
//
// Usage:
//
//	psi-bundle report bundle.zip                 # text incident report
//	psi-bundle report -json bundle.zip           # machine-readable report
//	psi-bundle list bundle.zip                   # entries with sizes
//	psi-bundle cat bundle.zip manifest.json      # raw entry to stdout
//
// Exit status: 0 on success, 1 on usage errors, 2 when the bundle is
// corrupt, truncated, or has an unsupported schema — distinct so CI can
// tell "the incident data is bad" from "the command was wrong".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes, per the package doc.
const (
	exitOK      = 0
	exitFail    = 1 // usage error
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
  psi-bundle report [-json] BUNDLE.zip
  psi-bundle list BUNDLE.zip
  psi-bundle cat BUNDLE.zip ENTRY

exit: 0 ok, 1 usage error, 2 corrupt or unreadable bundle
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

// cmdList prints the bundle's entries with their sizes, by name.
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
	names := make([]string, 0, len(a.Entries))
	for name := range a.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, _ = fmt.Fprintf(stdout, "  %9d  %s\n", len(a.Entries[name]), name)
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
	return exitOK
}

// reportDoc is the -json report document and the input of the text
// renderer. Alerts, Slowest and Workload are the obs documents the
// bundle's entries decode into (Workload cut to its top shapes).
type reportDoc struct {
	Schema   int                `json:"schema"`
	Bundle   obs.BundleManifest `json:"manifest"`
	Alerts   obs.AlertsData     `json:"alerts"`
	Slowest  []obs.ProfileData  `json:"slowest,omitempty"`
	Workload *obs.WorkloadData  `json:"workload,omitempty"`
}

// topShapes bounds the workload rows the report keeps.
const topShapes = 5

// buildReport decodes every JSON entry the report reads into the obs
// type its endpoint encodes and assembles the report document. A
// missing entry (its endpoint was unarmed) is skipped; one that does
// not parse makes the bundle corrupt for the caller.
func buildReport(a *obs.BundleArchive) (*reportDoc, error) {
	var (
		profiles obs.ProfilesData
		rep      = &reportDoc{Schema: 3, Bundle: a.Manifest}
	)
	for name, doc := range map[string]any{
		obs.AlertsEntry:   &rep.Alerts,
		obs.ProfilesEntry: &profiles,
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
	rep.Slowest = profiles.Slowest
	if wl := rep.Workload; wl != nil && len(wl.Shapes) > topShapes {
		wl.Shapes = wl.Shapes[:topShapes]
	}
	return rep, nil
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

	if len(rep.Slowest) > 0 {
		_, _ = fmt.Fprintln(w, "\nslowest profiles")
		for _, p := range rep.Slowest {
			_, _ = fmt.Fprintf(w, "  %8.2fms  %-10s %s", float64(p.DurationNanos)/1e6, p.Method, p.Name)
			if p.RequestID != "" {
				_, _ = fmt.Fprintf(w, "  req %s", p.RequestID)
			}
			if p.BetaScored > 0 {
				_, _ = fmt.Fprintf(w, "  β top-1 %d/%d", p.BetaTop1, p.BetaScored)
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
}
