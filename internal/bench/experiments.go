package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/psi"
	"repro/internal/smartpsi"
)

// cell aggregates one (dataset, size, system) measurement: the time of
// the done queries it ran out of its n.
type cell struct {
	total    time.Duration
	done, n  int
	censored bool
}

// String prints the cell's time, with ">" when a query was censored or
// the cell stopped early, and "k/nq" when it ran only k of its n queries.
func (c cell) String() string {
	s := FormatDuration(c.total)
	if c.censored {
		s = ">" + s
	}
	if c.done < c.n {
		s += fmt.Sprintf(" %d/%dq", c.done, c.n)
	}
	return s
}

// runCell evaluates up to n queries through run. A censored query marks
// the cell censored but does not end it: only the cell's cumulative
// budget, perQuery × n, stops it before query n.
func runCell(perQuery time.Duration, n int, run func(i int) (censored bool, err error)) (cell, error) {
	c := cell{n: n}
	budget := perQuery * time.Duration(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		censored, err := run(i)
		if err != nil {
			return c, err
		}
		c.done++
		c.censored = c.censored || censored
		if time.Since(start) > budget {
			break
		}
	}
	c.censored = c.censored || c.done < c.n
	c.total = time.Since(start)
	return c, nil
}

// workCell is a cell that also counts the exact work of its finished
// queries (summed Work().Units(), which the clock does not move) and how
// many of the queries it ran were censored, as Table 4 prints them.
type workCell struct {
	cell
	units    int64
	censored int
}

func (c workCell) String() string {
	return fmt.Sprintf("%s %du %dc", c.cell, c.units, c.censored)
}

// runWorkCell is runCell over a run that also reports each finished
// query's work units.
func runWorkCell(perQuery time.Duration, n int, run func(i int) (units int64, censored bool, err error)) (workCell, error) {
	var units int64
	var censored int
	c, err := runCell(perQuery, n, func(i int) (bool, error) {
		u, cens, err := run(i)
		if cens {
			censored++
		} else {
			units += u
		}
		return cens, err
	})
	return workCell{cell: c, units: units, censored: censored}, err
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
	return render(t, w)
}

// Table2 reproduces the paper's Table 2: TurboIso vs TurboIso+ vs
// SmartPSI total time on the Human dataset.
func Table2(env *Env, cfg Config, w io.Writer) error {
	sizes := intersectSizes(cfg.Sizes, 4, 7)
	t := NewTable("Table 2: PSI solutions on Human", append([]string{"system"}, sizeHeaders(sizes)...)...)
	for _, sys := range []string{"TurboIso", "TurboIso+", "SmartPSI"} {
		row := []interface{}{sys}
		for _, size := range sizes {
			c, err := runSystemCell(env, cfg, "human", sys, size)
			if err != nil {
				return err
			}
			row = append(row, c)
		}
		t.Add(row...)
	}
	return render(t, w)
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
	return render(t, w)
}

// Fig7 reproduces Figure 7: query performance of SmartPSI vs the full
// subgraph-isomorphism systems on Yeast, Cora and Human.
func Fig7(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Figure 7: SmartPSI vs subgraph isomorphism systems (total time)",
		append([]string{"dataset", "system"}, sizeHeaders(cfg.Sizes)...)...)
	for _, name := range []string{"yeast", "cora", "human"} {
		for _, sys := range []string{"GraphQL", "CFL-Match", "TurboIso", "TurboIso+", "SmartPSI"} {
			row := []interface{}{name, sys}
			for _, size := range cfg.Sizes {
				c, err := runSystemCell(env, cfg, name, sys, size)
				if err != nil {
					return err
				}
				row = append(row, c)
			}
			t.Add(row...)
		}
	}
	return render(t, w)
}

// runSystemCell evaluates one workload cell with the named system.
func runSystemCell(env *Env, cfg Config, dataset, system string, size int) (cell, error) {
	g, err := env.Graph(dataset)
	if err != nil {
		return cell{}, err
	}
	qs, err := env.Queries(dataset, size, size, cfg.QueriesPerSize)
	if err != nil {
		return cell{}, err
	}
	queries := qs.BySize[size]
	var eng *smartpsi.Engine
	if system == "SmartPSI" {
		if eng, err = env.Engine(dataset); err != nil {
			return cell{}, err
		}
	}
	return runCell(cfg.PerQueryBudget, len(queries), func(i int) (bool, error) {
		q := queries[i]
		deadline := time.Now().Add(cfg.PerQueryBudget)
		switch system {
		case "SmartPSI":
			_, err := eng.EvaluateBudget(q, deadline)
			if err == psi.ErrDeadline {
				return true, nil
			}
			return false, err
		case "TurboIso":
			e, err := match.NewTurboIso(g, q.G)
			if err != nil {
				return false, err
			}
			_, _, err = match.PivotBindings(e, q, match.Budget{Deadline: deadline})
			if err == match.ErrBudget {
				return true, nil
			}
			return false, err
		case "TurboIso+":
			e, err := match.NewTurboIsoPlus(g, q)
			if err != nil {
				return false, err
			}
			_, _, err = e.PivotBindings(match.Budget{Deadline: deadline})
			if err == match.ErrBudget {
				return true, nil
			}
			return false, err
		case "CFL-Match":
			e, err := match.NewCFL(g, q.G)
			if err != nil {
				return false, err
			}
			_, _, err = match.PivotBindings(e, q, match.Budget{Deadline: deadline})
			if err == match.ErrBudget {
				return true, nil
			}
			return false, err
		case "GraphQL":
			e, err := match.NewGraphQL(g, q.G)
			if err != nil {
				return false, err
			}
			_, _, err = match.PivotBindings(e, q, match.Budget{Deadline: deadline})
			if err == match.ErrBudget {
				return true, nil
			}
			return false, err
		default:
			return false, fmt.Errorf("bench: unknown system %q", system)
		}
	})
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
