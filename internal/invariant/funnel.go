package invariant

import "repro/internal/obs"

// CheckFunnel validates a query's candidate funnel, one row per plan
// depth, as psi.Funnel derives it: within every depth the stage counts
// must be non-negative and monotone non-increasing in pipeline order
// (generated ≥ deg-ok ≥ sig-ok ≥ recursed ≥ matched) — each stage only
// ever filters the previous one. It iterates obs.FunnelDepth.Stages
// rather than the named fields, so a stage added to the funnel is
// covered here automatically.
func CheckFunnel(rows []obs.FunnelDepth) error {
	names := obs.StageNames
	for depth := range rows {
		stages := rows[depth].Stages()
		for i, v := range stages {
			if v < 0 {
				return violationf("funnel", "depth %d: stage %s is negative (%d)", depth, names[i], v)
			}
			if i > 0 && v > stages[i-1] {
				return violationf("funnel", "depth %d: %s (%d) exceeds %s (%d); stages must be non-increasing",
					depth, names[i], v, names[i-1], stages[i-1])
			}
		}
	}
	return nil
}
