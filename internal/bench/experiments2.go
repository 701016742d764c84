package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/signature"
	"repro/internal/smartpsi"
)

// Fig8 reproduces Figure 8: exploration-based vs matrix-based
// neighborhood-signature construction time on every dataset.
func Fig8(env *Env, w io.Writer) error {
	t := NewTable("Figure 8: signature construction (exploration vs matrix)",
		"dataset", "nodes", "edges", "exploration", "matrix", "speedup")
	for _, name := range gen.Names() {
		g, err := env.Graph(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Exploration); err != nil {
			return err
		}
		expl := time.Since(t0)
		t0 = time.Now()
		if _, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix); err != nil {
			return err
		}
		mat := time.Since(t0)
		speedup := "n/a"
		if mat > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(expl)/float64(mat))
		}
		t.Add(name, g.NumNodes(), g.NumEdges(), FormatDuration(expl), FormatDuration(mat), speedup)
	}
	return t.Render(w)
}

// Fig9 reproduces Figure 9: SmartPSI (two worker threads) vs the
// two-threaded racing baseline on the YouTube and Twitter datasets.
func Fig9(env *Env, cfg Config, w io.Writer) error {
	sizes := intersectSizes(cfg.Sizes, 4, 8)
	t := NewTable("Figure 9: SmartPSI (2 threads) vs two-threaded baseline (time, work units, censored queries; the race's units include its stopped losers' partial work and vary from run to run)",
		append([]string{"dataset", "system"}, sizeHeaders(sizes)...)...)
	for _, dataset := range []string{"youtube", "twitter"} {
		eng, err := env.EngineWithOptions(dataset+"/2t", dataset, smartpsi.Options{Seed: env.Seed, Threads: 2})
		if err != nil {
			return err
		}
		for _, s := range []struct {
			name string
			sys  system
		}{
			{"two-threaded", strategy(eng, psi.TwoThreaded)},
			{"SmartPSI-2t", smart(eng, nil)},
		} {
			row, err := systemRow(env, cfg, dataset, sizes, cfg.QueriesPerSize, s.sys, dataset, s.name)
			if err != nil {
				return err
			}
			t.Add(row...)
		}
	}
	return t.Render(w)
}

// Fig10 reproduces Figure 10: SmartPSI vs optimistic-only and
// pessimistic-only on the Twitter dataset, 10 queries per size at most
// as in the paper.
func Fig10(env *Env, cfg Config, w io.Writer) error {
	sizes := intersectSizes(cfg.Sizes, 4, 8)
	t := NewTable("Figure 10: SmartPSI vs optimistic-only and pessimistic-only (Twitter; time, work units, censored queries)",
		append([]string{"system"}, sizeHeaders(sizes)...)...)
	eng, err := env.Engine("twitter")
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		sys  system
	}{
		{"Optimistic", strategy(eng, psi.OptimisticOnly)},
		{"Pessimistic", strategy(eng, psi.PessimisticOnly)},
		{"SmartPSI", smart(eng, nil)},
	} {
		row, err := systemRow(env, cfg, "twitter", sizes, min(cfg.QueriesPerSize, 10), s.sys, s.name)
		if err != nil {
			return err
		}
		t.Add(row...)
	}
	return t.Render(w)
}

// Fig11 reproduces Figure 11: model α prediction accuracy per dataset
// and query size, over the queries that finished, followed by the cell.
func Fig11(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Figure 11: node-type prediction accuracy (accuracy; time, work units, censored queries)",
		append([]string{"dataset"}, sizeHeaders(cfg.Sizes)...)...)
	for _, dataset := range []string{"yeast", "cora", "human", "youtube", "twitter"} {
		eng, err := env.Engine(dataset)
		if err != nil {
			return err
		}
		row := []interface{}{dataset}
		for _, size := range cfg.Sizes {
			qs, err := env.Queries(dataset, size, size, cfg.QueriesPerSize)
			if err != nil {
				return err
			}
			var agg smartpsi.AccuracyReport
			c, err := runCell(cfg.PerQueryBudget, qs.BySize[size], smart(eng, func(res *smartpsi.Result) {
				agg.Correct += res.Alpha.Correct
				agg.Total += res.Alpha.Total
			}))
			if err != nil {
				return err
			}
			acc := "n/a"
			if agg.Total > 0 {
				acc = fmt.Sprintf("%.1f%%", 100*agg.Accuracy())
			}
			row = append(row, acc+" "+c.String())
		}
		t.Add(row...)
	}
	return t.Render(w)
}

// Table4 reproduces Table 4: model training and prediction overhead as a
// percentage of total SmartPSI time over the queries that finished,
// followed by the cell.
func Table4(env *Env, cfg Config, w io.Writer) error {
	sizes := intersectSizes(cfg.Sizes, 4, 8)
	t := NewTable("Table 4: training+prediction overhead (% of total time; time, work units, censored queries)",
		append([]string{"dataset"}, sizeHeaders(sizes)...)...)
	for _, dataset := range []string{"human", "youtube", "twitter"} {
		eng, err := env.Engine(dataset)
		if err != nil {
			return err
		}
		row := []interface{}{dataset}
		for _, size := range sizes {
			qs, err := env.Queries(dataset, size, size, cfg.QueriesPerSize)
			if err != nil {
				return err
			}
			var overhead, total time.Duration
			c, err := runCell(cfg.PerQueryBudget, qs.BySize[size], smart(eng, func(res *smartpsi.Result) {
				overhead += res.TrainTime + res.ModelTime
				total += res.TotalTime
			}))
			if err != nil {
				return err
			}
			pct := "n/a"
			if total > 0 {
				pct = fmt.Sprintf("%.2f%%", 100*float64(overhead)/float64(total))
			}
			row = append(row, pct+" "+c.String())
		}
		t.Add(row...)
	}
	return t.Render(w)
}

// Fig12 reproduces Figure 12: the frequent-subgraph miner with
// traditional subgraph-isomorphism support vs PSI support, scaling with
// the worker count (the stand-in for ScaleMine's compute nodes).
func Fig12(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Figure 12: FSM with subgraph-iso vs PSI support",
		"dataset", "workers", "subgraph-iso", "psi", "speedup")
	for _, name := range []string{"twitter", "weibo"} {
		g, err := env.Graph(name)
		if err != nil {
			return err
		}
		support := int(cfg.MiningSupportFrac * float64(g.NumNodes()))
		if support < 2 {
			support = 2
		}
		sigs, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix)
		if err != nil {
			return err
		}
		psiEval, err := fsm.NewPSISupport(g, sigs)
		if err != nil {
			return err
		}
		isoEval := fsm.NewIsoSupport(g)
		for _, workers := range cfg.Workers {
			mcfg := fsm.Config{
				Support:  support,
				MaxEdges: cfg.MiningMaxEdges,
				Workers:  workers,
				Deadline: time.Now().Add(20 * cfg.PerQueryBudget),
			}
			isoTime, isoCensored := mineTime(g, isoEval, mcfg)
			mcfg.Deadline = time.Now().Add(20 * cfg.PerQueryBudget)
			psiTime, psiCensored := mineTime(g, psiEval, mcfg)
			speedup := "n/a"
			if psiTime > 0 && !isoCensored && !psiCensored {
				speedup = fmt.Sprintf("%.1fx", float64(isoTime)/float64(psiTime))
			}
			t.Add(name, workers, markedTime(isoTime, isoCensored), markedTime(psiTime, psiCensored), speedup)
		}
	}
	return t.Render(w)
}

func mineTime(g *graph.Graph, eval fsm.SupportEvaluator, cfg fsm.Config) (time.Duration, bool) {
	start := time.Now()
	_, err := fsm.Mine(g, eval, cfg)
	return time.Since(start), err != nil
}

// ModelComparison reproduces the Section 5.4 classifier study: Random
// Forest vs linear SVM vs a small neural network on the node-type
// problem, comparing accuracy and train+predict time.
func ModelComparison(env *Env, cfg Config, w io.Writer) error {
	t := NewTable("Section 5.4: classifier comparison (node-type model, Human)",
		"model", "holdout-acc", "cv-acc(5-fold)", "valid-F1", "train", "predict")
	ds, err := nodeTypeDataset(env, "human", 6, 1000)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(env.Seed))
	train, test := ds.Split(0.7, rng)
	models := []struct {
		name  string
		train func(d ml.Dataset) (ml.Classifier, error)
	}{
		{"random-forest", func(d ml.Dataset) (ml.Classifier, error) {
			return ml.TrainForest(d, ml.ForestConfig{Seed: env.Seed})
		}},
		{"linear-svm", func(d ml.Dataset) (ml.Classifier, error) {
			return ml.TrainSVM(d, ml.SVMConfig{Seed: env.Seed})
		}},
		{"neural-net", func(d ml.Dataset) (ml.Classifier, error) {
			return ml.TrainNN(d, ml.NNConfig{Seed: env.Seed})
		}},
	}
	for _, m := range models {
		t0 := time.Now()
		clf, err := m.train(train)
		if err != nil {
			return err
		}
		trainTime := time.Since(t0)
		t0 = time.Now()
		cm := ml.Evaluate(clf, test)
		predictTime := time.Since(t0)
		cvAcc := "n/a"
		if accs, err := ml.CrossValidate(ds, 5, env.Seed, m.train); err == nil {
			mean, std := ml.MeanStd(accs)
			cvAcc = fmt.Sprintf("%.1f%%±%.1f", 100*mean, 100*std)
		}
		t.Add(m.name,
			fmt.Sprintf("%.1f%%", 100*cm.Accuracy()),
			cvAcc,
			fmt.Sprintf("%.2f", cm.F1(1)),
			FormatDuration(trainTime), FormatDuration(predictTime))
	}
	return t.Render(w)
}

// nodeTypeDataset builds a ground-truth (signature, valid?) dataset for
// extracted queries by evaluating up to maxNodes candidates
// pessimistically. It prefers a two-class dataset of at least 40 rows
// but degrades gracefully on very small graphs.
func nodeTypeDataset(env *Env, dataset string, querySize, maxNodes int) (ml.Dataset, error) {
	eng, err := env.Engine(dataset)
	if err != nil {
		return ml.Dataset{}, err
	}
	g := eng.Graph()
	rng := rand.New(rand.NewSource(env.Seed + 99))
	var fallback ml.Dataset
	for attempt := 0; attempt < 24; attempt++ {
		size := querySize - attempt%3 // also try smaller queries
		if size < 2 {
			size = 2
		}
		q, err := extractFor(env, dataset, size, rng)
		if err != nil {
			return ml.Dataset{}, err
		}
		ev, err := psi.NewEvaluator(g, q, eng.Signatures(), nil)
		if err != nil {
			return ml.Dataset{}, err
		}
		c, err := compileHeuristic(q, g)
		if err != nil {
			return ml.Dataset{}, err
		}
		ds := ml.Dataset{NumClasses: 2}
		st := psi.NewState(q.Size())
		candidates := g.NodesWithLabel(q.G.Label(q.Pivot))
		for i, u := range candidates {
			if i >= maxNodes {
				break
			}
			ok, err := ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{})
			if err != nil {
				return ml.Dataset{}, err
			}
			cls := 0
			if ok {
				cls = 1
			}
			ds.X = append(ds.X, eng.Signatures().Row(u))
			ds.Y = append(ds.Y, cls)
		}
		// Need both classes for a meaningful comparison.
		hasValid, hasInvalid := false, false
		for _, y := range ds.Y {
			if y == 1 {
				hasValid = true
			} else {
				hasInvalid = true
			}
		}
		if hasValid && hasInvalid && ds.Len() >= 40 {
			return ds, nil
		}
		if ds.Len() > fallback.Len() {
			fallback = ds
		}
	}
	if fallback.Len() >= 10 {
		return fallback, nil // small or single-class: still comparable
	}
	return ml.Dataset{}, fmt.Errorf("bench: could not build a node-type dataset on %s", dataset)
}

// compileHeuristic compiles the selectivity-based heuristic plan for q.
func compileHeuristic(q graph.Query, g *graph.Graph) (*plan.Compiled, error) {
	return plan.Compile(q, plan.Heuristic(q, g))
}

func extractFor(env *Env, dataset string, size int, rng *rand.Rand) (graph.Query, error) {
	qs, err := env.Queries(dataset, size, size, 1+rng.Intn(4))
	if err != nil {
		return graph.Query{}, err
	}
	list := qs.BySize[size]
	return list[rng.Intn(len(list))], nil
}
