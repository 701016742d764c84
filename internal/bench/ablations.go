package bench

import (
	"io"

	"repro/internal/smartpsi"
)

// Ablations measures the design choices DESIGN.md calls out by running
// the same workload with one feature disabled at a time: model β
// (learned plans, Section 4.2.2), preemption (Section 4.3), and model α
// (method choice, Section 4.2.1). Each cell prints its time, its
// finished queries' summed work units and its unfinished count.
func Ablations(env *Env, cfg Config, w io.Writer) error {
	const dataset = "twitter"
	sizes := intersectSizes(cfg.Sizes, 4, 6)
	t := NewTable("Ablations: SmartPSI variants on "+dataset+" (time, work units, censored queries)",
		append([]string{"variant"}, sizeHeaders(sizes)...)...)

	variants := []struct {
		name string
		opts smartpsi.Options
	}{
		{"full", smartpsi.Options{}},
		{"no-plan-model", smartpsi.Options{DisablePlanModel: true}},
		{"no-preemption", smartpsi.Options{DisablePreemption: true}},
		{"no-type-model", smartpsi.Options{DisableTypeModel: true}},
	}
	for _, v := range variants {
		opts := v.opts
		opts.Seed = env.Seed
		eng, err := env.EngineWithOptions(dataset+"/abl/"+v.name, dataset, opts)
		if err != nil {
			return err
		}
		row, err := systemRow(env, cfg, dataset, sizes, cfg.QueriesPerSize, smart(eng, nil), v.name)
		if err != nil {
			return err
		}
		t.Add(row...)
	}
	return t.Render(w)
}
