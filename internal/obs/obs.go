// Package obs is the repository's stdlib-only observability layer: a
// lock-free metrics registry (atomic counters, gauges, and fixed-bucket
// histograms) with Prometheus-text and JSON encoders, per-query
// execution profiles (Profile: a query's identity while it runs, sealed
// once from the engine's per-query result when it ends, and retained by
// the /profilez flight recorder), and an opt-in debug HTTP surface
// serving /metrics, /metrics.json, /profilez, /modelz (model-decision
// state), /alertz, /queryz, /debugz/bundle and net/http/pprof.
//
// The layer follows the same gating pattern as package invariant:
// collection is off by default and every instrumentation site costs one
// predictable branch when disabled (an atomic-bool load) and one atomic
// add per event when enabled. Enable it with the PSI_OBS environment
// variable (any non-empty value), Enable(true) from tests, or the
// -debug-addr flag of cmd/psi-bench, cmd/psi-query and cmd/psi-workload
// (StartDebugServer enables collection as a side effect). The
// long-lived query service (internal/server, cmd/psi-serve) mounts the
// same surface on its main listener and keeps collection always on.
//
// The hot evaluation loops of package psi do not pay even the branch:
// they count into plain per-State psi.Stats rows, one per plan depth,
// on every path; the aggregated Stats are published into the registry
// at flush points (end of a query, end of a support-counting pass) via
// psi.PublishStats, and the candidate funnel is derived from the rows
// (psi.Funnel). Package smartpsi does the same with its decision
// facts (cache lookups, preemption transitions, model predictions): its
// workers count them in plain fields, and the query adds them to the
// registry and seals its profile once, from its result. It reads the
// gate once per query and carries the answer as a plain bool to the few
// sites still per evaluation (the plan-timing histogram and the model-β
// scoring of the training sweeps), so a query that starts with
// collection off stays uncollected, even if Enable flips mid-query.
package obs

import (
	"os"
	"sync/atomic"
)

var enabled atomic.Bool

func init() {
	if os.Getenv("PSI_OBS") != "" {
		enabled.Store(true)
	}
}

// Enabled reports whether metric and profile collection is on.
func Enabled() bool { return enabled.Load() }

// Enable switches collection on or off at runtime. The debug HTTP
// server and tests use it; production code should prefer the PSI_OBS
// environment variable or the -debug-addr flags.
func Enable(on bool) { enabled.Store(on) }
