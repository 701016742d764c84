package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// A system answers one query before its deadline and returns the work
// units it spent, or noUnits when it does not count its work. A query
// is censored when the system returns psi.ErrDeadline or match.ErrBudget.
type system func(q graph.Query, deadline time.Time) (units int64, err error)

// noUnits is what a system that counts no work returns as its units.
const noUnits = -1

// cell is one (dataset, size, system) measurement: the time of the done
// queries it ran out of its n, how many of those were censored, and the
// summed work units of the finished ones when its system counts them.
type cell struct {
	total             time.Duration
	done, n, censored int
	units             int64
	counted           bool
}

// String prints the cell's time, ">"-marked when a query was censored or
// the cell was cut short, then "k/nq" when it ran only k of its n
// queries, "Nu" when its system counts work, and the censored count "Nc".
func (c cell) String() string {
	s := markedTime(c.total, c.censored > 0 || c.done < c.n)
	if c.done < c.n {
		s += fmt.Sprintf(" %d/%dq", c.done, c.n)
	}
	if c.counted {
		s += fmt.Sprintf(" %du", c.units)
	}
	return s + fmt.Sprintf(" %dc", c.censored)
}

// markedTime prints d, ">"-prefixed when the run it times was censored.
func markedTime(d time.Duration, censored bool) string {
	if censored {
		return ">" + FormatDuration(d)
	}
	return FormatDuration(d)
}

// runCell evaluates queries through sys, each under its own perQuery
// deadline. A censored query counts in the cell but does not end it:
// only the cell's cumulative budget, perQuery × len(queries), stops it
// before its last query.
func runCell(perQuery time.Duration, queries []graph.Query, sys system) (cell, error) {
	c := cell{n: len(queries)}
	budget := perQuery * time.Duration(c.n)
	start := time.Now()
	for _, q := range queries {
		units, err := sys(q, time.Now().Add(perQuery))
		switch {
		case errors.Is(err, psi.ErrDeadline) || errors.Is(err, match.ErrBudget):
			c.censored++
		case err != nil:
			return c, err
		default:
			c.units += units
		}
		c.counted = units != noUnits
		c.done++
		if time.Since(start) > budget {
			break
		}
	}
	c.total = time.Since(start)
	return c, nil
}

// smart is SmartPSI on eng. fold, when not nil, reads each finished
// query's result (Table 4's overhead, Fig. 11's accuracy).
func smart(eng *smartpsi.Engine, fold func(*smartpsi.Result)) system {
	return func(q graph.Query, deadline time.Time) (int64, error) {
		res, err := eng.EvaluateBudget(q, deadline)
		if err != nil {
			return 0, err
		}
		if fold != nil {
			fold(res)
		}
		return res.Work().Units(), nil
	}
}

// strategy is one fixed psi strategy over eng's data signatures. The
// two-threaded race's units include each stopped loser's partial work,
// so they vary from run to run.
func strategy(eng *smartpsi.Engine, s psi.Strategy) system {
	return func(q graph.Query, deadline time.Time) (int64, error) {
		ev, err := psi.NewEvaluator(eng.Graph(), q, eng.Signatures(), nil)
		if err != nil {
			return 0, err
		}
		res, err := psi.EvaluateAll(ev, s, 0, deadline)
		return res.Stats.Units(), err
	}
}

// isoSystems are the subgraph-isomorphism systems of Table 2 and Fig. 7.
// Each answers a PSI query by projecting embeddings onto the pivot;
// TurboIso+ stops at each pivot candidate's first embedding.
var isoSystems = map[string]func(g *graph.Graph, q graph.Query, b match.Budget) error{
	"GraphQL":   projected(match.NewGraphQL),
	"CFL-Match": projected(match.NewCFL),
	"TurboIso":  projected(match.NewTurboIso),
	"TurboIso+": func(g *graph.Graph, q graph.Query, b match.Budget) error {
		e, err := match.NewTurboIsoPlus(g, q)
		if err != nil {
			return err
		}
		_, _, err = e.PivotBindings(b)
		return err
	},
}

// projected answers a PSI query with a full enumeration engine.
func projected[E match.Engine](newEngine func(g, q *graph.Graph) (E, error)) func(*graph.Graph, graph.Query, match.Budget) error {
	return func(g *graph.Graph, q graph.Query, b match.Budget) error {
		e, err := newEngine(g, q.G)
		if err != nil {
			return err
		}
		_, _, err = match.PivotBindings(e, q, b)
		return err
	}
}

// namedSystem returns Table 2's and Fig. 7's system called name on
// dataset: SmartPSI or one of isoSystems.
func namedSystem(env *Env, dataset, name string) (system, error) {
	if name == "SmartPSI" {
		eng, err := env.Engine(dataset)
		if err != nil {
			return nil, err
		}
		return smart(eng, nil), nil
	}
	iso, ok := isoSystems[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown system %q", name)
	}
	g, err := env.Graph(dataset)
	if err != nil {
		return nil, err
	}
	return func(q graph.Query, deadline time.Time) (int64, error) {
		return noUnits, iso(g, q, match.Budget{Deadline: deadline})
	}, nil
}

// systemRow runs sys on n queries of dataset per size and returns label
// followed by one cell per size.
func systemRow(env *Env, cfg Config, dataset string, sizes []int, n int, sys system, label ...interface{}) ([]interface{}, error) {
	row := label
	for _, size := range sizes {
		qs, err := env.Queries(dataset, size, size, n)
		if err != nil {
			return nil, err
		}
		c, err := runCell(cfg.PerQueryBudget, qs.BySize[size], sys)
		if err != nil {
			return nil, err
		}
		row = append(row, c)
	}
	return row, nil
}

// Table1 reproduces the paper's Table 1: the number of PSI results vs
// the number of full subgraph-isomorphism embeddings, per dataset and
// query size.
func Table1(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Table 1: PSI results vs. subgraph isomorphism embeddings", append([]string{"dataset", "metric"}, sizeHeaders(cfg.Sizes)...)...)
	for _, name := range []string{"yeast", "cora", "human"} {
		g, err := env.Graph(name)
		if err != nil {
			return err
		}
		eng, err := env.Engine(name)
		if err != nil {
			return err
		}
		psiRow := []interface{}{name, "PSI"}
		isoRow := []interface{}{name, "SubgraphIso"}
		for _, size := range cfg.Sizes {
			qs, err := env.Queries(name, size, size, cfg.QueriesPerSize)
			if err != nil {
				return err
			}
			var psiCount, isoCount int64
			capped := false
			for _, q := range qs.BySize[size] {
				res, err := eng.Evaluate(q)
				if err != nil {
					return err
				}
				psiCount += int64(len(res.Bindings))

				bt, err := match.NewBacktracking(g, q.G)
				if err != nil {
					return err
				}
				n, err := match.CountEmbeddings(bt, match.Budget{
					MaxEmbeddings: cfg.EmbeddingCap,
					Deadline:      time.Now().Add(cfg.PerQueryBudget),
				})
				if err == match.ErrBudget {
					capped = true
				} else if err != nil {
					return err
				}
				isoCount += n
			}
			psiRow = append(psiRow, FormatCount(psiCount, false))
			isoRow = append(isoRow, FormatCount(isoCount, capped))
		}
		t.Add(psiRow...)
		t.Add(isoRow...)
	}
	return t.Render(w)
}

// Table2 reproduces the paper's Table 2: TurboIso vs TurboIso+ vs
// SmartPSI total time on the Human dataset.
func Table2(env *Env, cfg Config, w io.Writer) error {
	sizes := intersectSizes(cfg.Sizes, 4, 7)
	t := NewTable("Table 2: PSI solutions on Human (time, SmartPSI work units, censored queries)", append([]string{"system"}, sizeHeaders(sizes)...)...)
	for _, name := range []string{"TurboIso", "TurboIso+", "SmartPSI"} {
		sys, err := namedSystem(env, "human", name)
		if err != nil {
			return err
		}
		row, err := systemRow(env, cfg, "human", sizes, cfg.QueriesPerSize, sys, name)
		if err != nil {
			return err
		}
		t.Add(row...)
	}
	return t.Render(w)
}

// Table3 reports the generated datasets against the published Table 3.
func Table3(env *Env, w io.Writer) error {
	t := NewTable("Table 3: datasets (generated vs published)",
		"dataset", "nodes", "edges", "labels", "avgDeg", "pub.nodes", "pub.edges", "pub.labels")
	for _, name := range gen.Names() {
		g, err := env.Graph(name)
		if err != nil {
			return err
		}
		s := graph.ComputeStats(g, false)
		pn, pe, pl, err := gen.PublishedStats(name)
		if err != nil {
			return err
		}
		t.Add(name, s.Nodes, s.Edges, s.Labels, fmt.Sprintf("%.1f", s.AvgDegree), pn, pe, pl)
	}
	return t.Render(w)
}

// Fig7 reproduces Figure 7: query performance of SmartPSI vs the full
// subgraph-isomorphism systems on Yeast, Cora and Human.
func Fig7(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Figure 7: SmartPSI vs subgraph isomorphism systems (total time, SmartPSI work units, censored queries)",
		append([]string{"dataset", "system"}, sizeHeaders(cfg.Sizes)...)...)
	for _, dataset := range []string{"yeast", "cora", "human"} {
		for _, name := range []string{"GraphQL", "CFL-Match", "TurboIso", "TurboIso+", "SmartPSI"} {
			sys, err := namedSystem(env, dataset, name)
			if err != nil {
				return err
			}
			row, err := systemRow(env, cfg, dataset, cfg.Sizes, cfg.QueriesPerSize, sys, dataset, name)
			if err != nil {
				return err
			}
			t.Add(row...)
		}
	}
	return t.Render(w)
}

func sizeHeaders(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("q=%d", s)
	}
	return out
}

func intersectSizes(sizes []int, lo, hi int) []int {
	var out []int
	for _, s := range sizes {
		if s >= lo && s <= hi {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []int{lo}
	}
	return out
}
