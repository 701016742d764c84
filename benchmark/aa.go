package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// aaRuns is the number of runs per set and workload, seeds 1..aaRuns:
// what the acceptance check makes.
const aaRuns = 10

// derivedBound is the regression bound a metric needs given what two
// sets of runs of the same code showed: twice the worst difference
// between the sets' medians, so that a difference that size is not
// taken for a regression, three times the worst spread within a set,
// and at least 0.05. Above maxBound the metric cannot be resolved on
// this machine.
func derivedBound(worstDelta, worstSpread float64) float64 {
	return math.Ceil(100*max(0.05, 2*worstDelta, 3*worstSpread)) / 100
}

// maxBound is the largest bound BENCHMARK.json may carry.
const maxBound = 0.25

// runAA measures the benchmark's own noise the way the acceptance
// check does: two sets of runs of this same code per workload (every
// workload, or the one named by -workload), seeds 1..aaRuns in each,
// interleaved A1 B1 A2 B2 ... so that slow drift of the machine lands
// on both sets. Per end-to-end metric it reports each set's median and
// interquartile distance as a share of the median
// (statistics.quantiles(n=4), as the check computes it), by how much
// set B's median differs from set A's, and the bound that follows. The
// Markdown report goes to NOISE.md in the work directory;
// benchmark/NOISE.md is a copy of one such report, and
// BENCHMARK.json's bounds come from it.
func runAA(env *environment, only string, seconds int) error {
	bounds, err := readBounds(env.root)
	if err != nil {
		return err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "# A/A noise of the benchmark\n\n")
	fmt.Fprintf(&out, "Two interleaved sets of %d runs per workload of the same code (`-aa -seconds %d`), seeds 1..%d in each set.\n",
		aaRuns, seconds, aaRuns)
	fmt.Fprintf(&out, "%s, %d CPUs, commit %s, %s.\n\n", runtime.Version(), runtime.NumCPU(), commit(env.root), time.Now().UTC().Format("2006-01-02 15:04"))
	fmt.Fprintf(&out, "`spread` is (Q3 - Q1) / median over a set's runs; `B vs A` is how much worse set B's median is than set A's (negative: better).\n")
	fmt.Fprintf(&out, "A metric holds when both spreads and `B vs A` are within its bound; `setup_s` is held to `B vs A` only.\n")
	fmt.Fprintf(&out, "The request metrics are each the best of the run's five segments; the `.median5` rows are what the median of the five would have reported.\n")
	fmt.Fprintf(&out, "`cal_ms` is the calibration loop (a fixed ALU+memory loop, nothing of the repository in it) timed before each run: its spread is the machine's alone.\n")
	worstDelta, worstSpread := make(map[string]float64), make(map[string]float64)
	// Reported beside the end-to-end metrics, without a bound: what
	// the median of the five segments would have given where the
	// metric is the best of them, and the calibration loop.
	ungated := []metricSpec{
		{"qps.median5", "1/s", "higher"}, {"p50_ms.median5", "ms", "lower"}, {"p95_ms.median5", "ms", "lower"},
		{"cpu_ms_per_req.median5", "ms", "lower"}, {"machine.cal_ms", "ms", "lower"},
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= aaRuns; i++ {
			for s := range sets {
				fmt.Printf("--- aa: %s, seed %d, set %c\n", w.name, i, 'A'+s)
				rep, err := runEndToEnd(env, w, int64(i), seconds)
				if err != nil {
					return err
				}
				if rep.failed > 0 || rep.verified == 0 {
					return fmt.Errorf("%s seed %d: %d failed, %d verified", w.name, i, rep.failed, rep.verified)
				}
				fmt.Printf("aa-run %s seed %d set %c:", w.name, i, 'A'+s)
				for _, m := range append(slices.Clone(endToEnd), ungated...) {
					sets[s][m.name] = append(sets[s][m.name], rep.metrics[m.name])
					fmt.Printf(" %s=%.6g", m.name, rep.metrics[m.name])
				}
				fmt.Println()
			}
		}
		fmt.Fprintf(&out, "\n## %s\n\n| metric | unit | median A | spread A | median B | spread B | B vs A | bound | holds |\n|---|---|---:|---:|---:|---:|---:|---:|---|\n", w.name)
		for _, m := range append(slices.Clone(endToEnd), ungated...) {
			a, b := sets[0][m.name], sets[1][m.name]
			delta := median(b)/median(a) - 1
			if m.better == "higher" {
				delta = -delta
			}
			bound, gated := bounds[m.name]
			if !gated {
				fmt.Fprintf(&out, "| %s | %s | %.6g | %.4f | %.6g | %.4f | %+.4f | | |\n",
					m.name, m.unit, median(a), relIQR(a), median(b), relIQR(b), delta)
				continue
			}
			spread := max(relIQR(a), relIQR(b))
			if m.name == "setup_s" {
				spread = 0
			}
			worstDelta[m.name] = max(worstDelta[m.name], math.Abs(delta))
			worstSpread[m.name] = max(worstSpread[m.name], spread)
			holds := "yes"
			if max(delta, spread) > bound {
				holds = "NO"
			}
			fmt.Fprintf(&out, "| %s | %s | %.6g | %.4f | %.6g | %.4f | %+.4f | %.2f | %s |\n",
				m.name, m.unit, median(a), relIQR(a), median(b), relIQR(b), delta, bound, holds)
		}
	}
	fmt.Fprintf(&out, "\n## Bounds\n\nmax(0.05, 2 x worst |B vs A|, 3 x worst spread) over the workloads above, rounded up to a hundredth; BENCHMARK.json allows at most %.2f.\n\n", maxBound)
	fmt.Fprintf(&out, "| metric | worst spread | worst B vs A | bound that follows | bound in BENCHMARK.json |\n|---|---:|---:|---:|---:|\n")
	for _, m := range endToEnd {
		follows := fmt.Sprintf("%.2f", derivedBound(worstDelta[m.name], worstSpread[m.name]))
		if derivedBound(worstDelta[m.name], worstSpread[m.name]) > maxBound {
			follows += " (unresolved: above the cap)"
		}
		fmt.Fprintf(&out, "| %s | %.4f | %.4f | %s | %.2f |\n", m.name, worstSpread[m.name], worstDelta[m.name], follows, bounds[m.name])
	}
	path := filepath.Join(env.workDir, "NOISE.md")
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		return err
	}
	fmt.Print(out.String())
	fmt.Printf("\nreport written to %s\n", path)
	return nil
}

// readBounds returns the regression bound of each end-to-end metric
// from the checkout's BENCHMARK.json.
func readBounds(root string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
