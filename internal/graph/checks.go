package graph

// Build-time deep-validation hooks.
//
// Package invariant layers debug-gated deep validators on top of this
// package, but graph cannot import it (invariant imports graph for its
// types). Instead invariant registers its graph checker here at init
// time; Builder.Build runs every registered check on each graph it
// produces. With checking disabled the registered function returns nil
// immediately, so the production cost is one function call per built
// graph.

var buildChecks []func(*Graph) error

// RegisterBuildCheck installs f to run on every graph finalized by
// Builder.Build. Registration is expected to happen from package init
// functions (it is not synchronized); f must be safe for concurrent
// calls.
func RegisterBuildCheck(f func(*Graph) error) {
	buildChecks = append(buildChecks, f)
}

// runBuildChecks runs all registered build checks against g.
func runBuildChecks(g *Graph) error {
	for _, f := range buildChecks {
		if err := f(g); err != nil {
			return err
		}
	}
	return nil
}
