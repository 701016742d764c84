// Benchmarks mirroring the paper's evaluation: one family per table and
// figure (see DESIGN.md's experiment index) plus ablations of the design
// choices SmartPSI makes. They run on hard-scaled synthetic datasets so
// `go test -bench=.` completes in minutes; cmd/psi-bench runs the same
// experiments at full scale and prints the paper-style tables.
package repro

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/signature"
	"repro/internal/smartpsi"
	"repro/internal/workload"
)

// benchScale hard-shrinks each dataset for benchmark iterations.
const benchScale = 8

type benchFixture struct {
	graphs  map[string]*graph.Graph
	engines map[string]*smartpsi.Engine
	queries map[string]graph.Query // dataset/size -> one fixed query
}

var (
	fixOnce sync.Once
	fix     *benchFixture
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		fix = &benchFixture{
			graphs:  make(map[string]*graph.Graph),
			engines: make(map[string]*smartpsi.Engine),
			queries: make(map[string]graph.Query),
		}
		for _, name := range []string{"yeast", "cora", "human", "youtube", "twitter", "weibo"} {
			full, err := gen.FullSpec(name)
			if err != nil {
				panic(err)
			}
			def, err := gen.DefaultSpec(name)
			if err != nil {
				panic(err)
			}
			base := 1
			if def.Nodes > 0 {
				base = full.Nodes / def.Nodes
				if base < 1 {
					base = 1
				}
			}
			spec, err := gen.ScaledSpec(name, base*benchScale)
			if err != nil {
				panic(err)
			}
			g, err := gen.Generate(spec)
			if err != nil {
				panic(err)
			}
			fix.graphs[name] = g
			// Like internal/bench, these loops re-run one query per
			// iteration and price the paper's per-query training.
			eng, err := smartpsi.NewEngine(g, smartpsi.Options{Seed: 42, DisablePreparedCache: true})
			if err != nil {
				panic(err)
			}
			fix.engines[name] = eng
			rng := rand.New(rand.NewSource(42))
			for _, size := range []int{4, 5, 6} {
				q, err := workload.ExtractQuery(g, size, rng)
				if err != nil {
					panic(err)
				}
				fix.queries[key(name, size)] = q
			}
		}
	})
	return fix
}

func key(name string, size int) string { return name + "/" + string(rune('0'+size)) }

func makeEvaluator(b *testing.B, f *benchFixture, dataset string, q graph.Query) *psi.Evaluator {
	b.Helper()
	eng := f.engines[dataset]
	ev, err := psi.NewEvaluator(f.graphs[dataset], q, eng.Signatures(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// ---- Table 1: PSI vs full subgraph-isomorphism enumeration ----

func BenchmarkTable1_PSI(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("yeast", 5)]
	eng := f.engines["yeast"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_SubgraphIso(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("yeast", 5)]
	g := f.graphs["yeast"]
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		bt, err := match.NewBacktracking(g, q.G)
		if err != nil {
			b.Fatal(err)
		}
		n, err := match.CountEmbeddings(bt, match.Budget{MaxEmbeddings: 5_000_000})
		if err != nil && err != match.ErrBudget {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "embeddings/op")
}

// ---- Table 2 / Figure 7: systems head to head ----

func benchmarkSystem(b *testing.B, dataset string, size int, system string) {
	f := fixture(b)
	q := f.queries[key(dataset, size)]
	g := f.graphs[dataset]
	budget := match.Budget{Deadline: time.Now().Add(time.Duration(b.N) * 2 * time.Second)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch system {
		case "smartpsi":
			if _, err := f.engines[dataset].Evaluate(q); err != nil {
				b.Fatal(err)
			}
		case "turboiso":
			e, err := match.NewTurboIso(g, q.G)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := match.PivotBindings(e, q, budget); err != nil && err != match.ErrBudget {
				b.Fatal(err)
			}
		case "turboiso+":
			e, err := match.NewTurboIsoPlus(g, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := e.PivotBindings(budget); err != nil && err != match.ErrBudget {
				b.Fatal(err)
			}
		case "cfl":
			e, err := match.NewCFL(g, q.G)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := match.PivotBindings(e, q, budget); err != nil && err != match.ErrBudget {
				b.Fatal(err)
			}
		case "graphql":
			e, err := match.NewGraphQL(g, q.G)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := match.PivotBindings(e, q, budget); err != nil && err != match.ErrBudget {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable2_TurboIso(b *testing.B)     { benchmarkSystem(b, "human", 5, "turboiso") }
func BenchmarkTable2_TurboIsoPlus(b *testing.B) { benchmarkSystem(b, "human", 5, "turboiso+") }
func BenchmarkTable2_SmartPSI(b *testing.B)     { benchmarkSystem(b, "human", 5, "smartpsi") }

func BenchmarkFig7_Yeast_GraphQL(b *testing.B)      { benchmarkSystem(b, "yeast", 6, "graphql") }
func BenchmarkFig7_Yeast_CFL(b *testing.B)          { benchmarkSystem(b, "yeast", 6, "cfl") }
func BenchmarkFig7_Yeast_TurboIso(b *testing.B)     { benchmarkSystem(b, "yeast", 6, "turboiso") }
func BenchmarkFig7_Yeast_TurboIsoPlus(b *testing.B) { benchmarkSystem(b, "yeast", 6, "turboiso+") }
func BenchmarkFig7_Yeast_SmartPSI(b *testing.B)     { benchmarkSystem(b, "yeast", 6, "smartpsi") }
func BenchmarkFig7_Cora_CFL(b *testing.B)           { benchmarkSystem(b, "cora", 6, "cfl") }
func BenchmarkFig7_Cora_SmartPSI(b *testing.B)      { benchmarkSystem(b, "cora", 6, "smartpsi") }
func BenchmarkFig7_Human_CFL(b *testing.B)          { benchmarkSystem(b, "human", 6, "cfl") }
func BenchmarkFig7_Human_SmartPSI(b *testing.B)     { benchmarkSystem(b, "human", 6, "smartpsi") }

// ---- Table 3: dataset generation and statistics ----

func BenchmarkTable3_DatasetStats(b *testing.B) {
	f := fixture(b)
	g := f.graphs["yeast"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.ComputeStats(g, false)
	}
}

// ---- Figure 8: signature construction ----

func BenchmarkFig8_Exploration(b *testing.B) {
	f := fixture(b)
	g := f.graphs["youtube"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Exploration); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Matrix(b *testing.B) {
	f := fixture(b)
	g := f.graphs["youtube"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Build(g, signature.DefaultDepth, g.NumLabels(), signature.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 9: two-threaded baseline vs SmartPSI ----

func BenchmarkFig9_TwoThreaded(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("twitter", 4)]
	ev := makeEvaluator(b, f, "twitter", q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psi.EvaluateAll(ev, psi.TwoThreaded, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_SmartPSI2Threads(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("twitter", 4)]
	eng, err := smartpsi.NewEngine(f.graphs["twitter"], smartpsi.Options{Seed: 42, Threads: 2, DisablePreparedCache: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 10: single-strategy baselines ----

func benchmarkStrategy(b *testing.B, strategy psi.Strategy) {
	f := fixture(b)
	q := f.queries[key("twitter", 5)]
	ev := makeEvaluator(b, f, "twitter", q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psi.EvaluateAll(ev, strategy, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Optimistic(b *testing.B)  { benchmarkStrategy(b, psi.OptimisticOnly) }
func BenchmarkFig10_Pessimistic(b *testing.B) { benchmarkStrategy(b, psi.PessimisticOnly) }
func BenchmarkFig10_SmartPSI(b *testing.B)    { benchmarkSystem(b, "twitter", 5, "smartpsi") }

// ---- Figure 11 / Table 4: accuracy and overhead telemetry ----

func BenchmarkFig11_Table4_SmartPSITelemetry(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("twitter", 5)]
	eng := f.engines["twitter"]
	var correct, total, overhead, wall int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Evaluate(q)
		if err != nil {
			b.Fatal(err)
		}
		correct += res.Alpha.Correct
		total += res.Alpha.Total
		overhead += int64(res.TrainTime + res.ModelTime)
		wall += int64(res.TotalTime)
	}
	if total > 0 {
		b.ReportMetric(100*float64(correct)/float64(total), "accuracy%")
	}
	if wall > 0 {
		b.ReportMetric(100*float64(overhead)/float64(wall), "overhead%")
	}
}

// ---- Figure 12: FSM with iso vs PSI support ----

// benchmarkMine runs the miner with 3-edge patterns on the dense Weibo
// stand-in — the regime where the paper's Figure 12 gap appears. Iso
// runs are deadline-capped so a benchmark iteration stays bounded.
func benchmarkMine(b *testing.B, mode string, workers int) {
	f := fixture(b)
	g := f.graphs["weibo"]
	support := g.NumNodes() / 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := MineConfig{
			Support:  support,
			MaxEdges: 3,
			Workers:  workers,
			Deadline: time.Now().Add(20 * time.Second),
		}
		var err error
		if mode == "psi" {
			_, err = MinePSI(g, cfg)
		} else {
			_, err = MineIso(g, cfg)
		}
		if err != nil && err != match.ErrBudget && err != psi.ErrDeadline {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_MineIso_1Worker(b *testing.B)  { benchmarkMine(b, "iso", 1) }
func BenchmarkFig12_MineIso_4Workers(b *testing.B) { benchmarkMine(b, "iso", 4) }
func BenchmarkFig12_MinePSI_1Worker(b *testing.B)  { benchmarkMine(b, "psi", 1) }
func BenchmarkFig12_MinePSI_4Workers(b *testing.B) { benchmarkMine(b, "psi", 4) }

// ---- Section 5.4: classifier comparison ----

func classifierDataset(b *testing.B) ml.Dataset {
	b.Helper()
	f := fixture(b)
	eng := f.engines["human"]
	g := f.graphs["human"]
	q := f.queries[key("human", 5)]
	ev, err := psi.NewEvaluator(g, q, eng.Signatures(), nil)
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(q, plan.Heuristic(q, g))
	if err != nil {
		b.Fatal(err)
	}
	ds := ml.Dataset{NumClasses: 2}
	st := psi.NewState(q.Size())
	for _, u := range g.NodesWithLabel(q.G.Label(q.Pivot)) {
		ok, err := ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		cls := 0
		if ok {
			cls = 1
		}
		ds.X = append(ds.X, eng.Signatures().Row(u))
		ds.Y = append(ds.Y, cls)
	}
	return ds
}

func BenchmarkModelComparison_RandomForest(b *testing.B) {
	ds := classifierDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainForest(ds, ml.ForestConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelComparison_SVM(b *testing.B) {
	ds := classifierDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainSVM(ds, ml.SVMConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelComparison_NeuralNet(b *testing.B) {
	ds := classifierDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainNN(ds, ml.NNConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md Section 5) ----

// BenchmarkAblationSuperOptimistic measures the capped first pass's
// value when evaluating valid nodes optimistically.
func BenchmarkAblationSuperOptimistic(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("human", 5)]
	ev := makeEvaluator(b, f, "human", q)
	c, err := plan.Compile(q, plan.Heuristic(q, f.graphs["human"]))
	if err != nil {
		b.Fatal(err)
	}
	candidates := f.graphs["human"].NodesWithLabel(q.G.Label(q.Pivot))
	if len(candidates) > 64 {
		candidates = candidates[:64]
	}
	b.Run("with-super", func(b *testing.B) {
		st := psi.NewState(q.Size())
		for i := 0; i < b.N; i++ {
			for _, u := range candidates {
				if _, err := ev.Evaluate(st, c, u, psi.Optimistic, psi.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("without-super", func(b *testing.B) {
		st := psi.NewState(q.Size())
		for i := 0; i < b.N; i++ {
			for _, u := range candidates {
				if _, err := ev.EvaluateNoSuper(st, c, u, psi.Optimistic, psi.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSignaturePruning isolates Proposition 3.2's value in
// the pessimistic method.
func BenchmarkAblationSignaturePruning(b *testing.B) {
	f := fixture(b)
	q := f.queries[key("human", 5)]
	ev := makeEvaluator(b, f, "human", q)
	c, err := plan.Compile(q, plan.Heuristic(q, f.graphs["human"]))
	if err != nil {
		b.Fatal(err)
	}
	candidates := f.graphs["human"].NodesWithLabel(q.G.Label(q.Pivot))
	if len(candidates) > 64 {
		candidates = candidates[:64]
	}
	b.Run("with-pruning", func(b *testing.B) {
		st := psi.NewState(q.Size())
		for i := 0; i < b.N; i++ {
			for _, u := range candidates {
				if _, err := ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("without-pruning", func(b *testing.B) {
		st := psi.NewState(q.Size())
		for i := 0; i < b.N; i++ {
			for _, u := range candidates {
				if _, err := ev.EvaluateNoSigPrune(st, c, u, psi.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func benchmarkEngineVariant(b *testing.B, opts smartpsi.Options) {
	f := fixture(b)
	q := f.queries[key("twitter", 5)]
	opts.Seed = 42
	opts.DisablePreparedCache = true
	eng, err := smartpsi.NewEngine(f.graphs["twitter"], opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPreemption(b *testing.B) {
	b.Run("with-preemption", func(b *testing.B) { benchmarkEngineVariant(b, smartpsi.Options{}) })
	b.Run("without-preemption", func(b *testing.B) {
		benchmarkEngineVariant(b, smartpsi.Options{DisablePreemption: true})
	})
}

func BenchmarkAblationPlanModel(b *testing.B) {
	b.Run("with-plan-model", func(b *testing.B) { benchmarkEngineVariant(b, smartpsi.Options{}) })
	b.Run("heuristic-plan-only", func(b *testing.B) {
		benchmarkEngineVariant(b, smartpsi.Options{DisablePlanModel: true})
	})
}
