package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a named, runnable table/figure reproduction.
type Experiment struct {
	Name        string
	Description string
	Run         func(env *Env, cfg Config, w io.Writer) error
}

// Experiments returns the registry of all reproductions, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "PSI results vs subgraph-iso embeddings (Yeast/Cora/Human)", Table1},
		{"table2", "TurboIso vs TurboIso+ vs SmartPSI on Human", Table2},
		{"table3", "dataset characteristics (generated vs published)",
			func(env *Env, _ Config, w io.Writer) error { return Table3(env, w) }},
		{"fig7", "SmartPSI vs subgraph-iso systems (Yeast/Cora/Human)", Fig7},
		{"fig8", "signature construction: exploration vs matrix",
			func(env *Env, _ Config, w io.Writer) error { return Fig8(env, w) }},
		{"fig9", "SmartPSI (2 threads) vs two-threaded baseline (YouTube/Twitter)", Fig9},
		{"fig10", "SmartPSI vs optimistic-only / pessimistic-only (Twitter)", Fig10},
		{"fig11", "node-type prediction accuracy", Fig11},
		{"table4", "training+prediction overhead percentage", Table4},
		{"fig12", "FSM: subgraph-iso vs PSI support, worker scaling (Twitter/Weibo)", Fig12},
		{"models", "Section 5.4 classifier comparison (RF vs SVM vs NN)", ModelComparison},
		{"ablations", "SmartPSI design-choice ablations (plans/preemption/types)", Ablations},
	}
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, names)
}

// RunAll executes every experiment in paper order.
func RunAll(env *Env, cfg Config, w io.Writer) error {
	for _, e := range Experiments() {
		if err := e.Run(env, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
