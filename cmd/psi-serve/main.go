// Command psi-serve is the long-lived PSI query service: it loads one
// data graph, builds the SmartPSI engine once (signatures computed,
// prediction machinery warm), and serves pivoted-subgraph-isomorphism
// queries over HTTP/JSON with admission control, per-request deadlines,
// load shedding, and graceful drain (see internal/server and
// OPERATIONS.md).
//
// Usage:
//
//	psi-serve -graph g.lg                        # serve a graph file
//	psi-serve -dataset cora -addr 127.0.0.1:8080 # serve a built-in dataset
//	psi-serve -graph g.lg -workers 8 -queue 128 -default-timeout 2s
//	psi-serve -graph g.lg -addr 127.0.0.1:0 -addr-file /tmp/addr
//	psi-serve -graph g.lg -sample-interval 1s -slo-availability 0.99
//
// Sharded serving (see ARCHITECTURE.md "Sharded serving" and the
// OPERATIONS.md fleet runbook) comes in three forms:
//
//	psi-serve -graph g.lg -shards 4              # in-process scatter-gather cluster
//	psi-serve -graph g.lg -shard-of 2 -shard-index 0   # one fleet shard node
//	psi-serve -coordinator -shard-addrs host0:8080,host1:8080
//
// A shard node loads the same graph file as its peers, derives the
// deterministic ownership partition, and evaluates only the pivot
// candidates it owns, on the whole graph. The coordinator holds no graph
// at all: it scatters each query to every shard node over the normal wire
// format and merges the answers, flagging partial results when a shard
// is lost.
//
// Endpoints: POST /v1/psi, POST /v1/psi/batch, GET /healthz, GET
// /readyz, plus the full obs debug surface (/metrics, /metrics.json,
// /profilez, /modelz, /alertz, /queryz, /debugz/bundle;
// /debug/pprof answers 403 unless -expose-pprof is set). Metric
// collection is always on in a serving process; with -sample-interval
// > 0 a background sampler additionally keeps windowed time series of
// what the SLO objectives and the Retry-After estimate read, and
// evaluates SLO burn-rate alerts (/alertz, which names the bad counter
// behind each burn). With -bundle-dir set, a
// diagnostic bundle (zip of the JSON the debug endpoints serve, plus
// goroutine and heap dumps) is auto-captured whenever an SLO objective
// starts firing. With -workload-topk > 0 (the default) every served
// query is canonically fingerprinted and folded into a bounded top-K
// sketch served at /queryz — per-shape counts, cost attribution and an
// answer-cache win estimate; bundles then carry workload.json.
//
// A single query:
//
//	curl -s localhost:8080/v1/psi -d '{"query":{"nodes":[0,1,0],
//	  "edges":[[0,1],[1,2],[0,2]],"pivot":0},"timeout_ms":500}'
//
// On SIGINT/SIGTERM the server stops admitting work (readyz -> 503,
// /v1 routes -> 503 + Retry-After), finishes in-flight queries, and
// exits; -drain-timeout bounds the wait.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/smartpsi"
)

func main() {
	var (
		graphPath      = flag.String("graph", "", "data graph file (LG format)")
		dataset        = flag.String("dataset", "", "built-in dataset name (alternative to -graph)")
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile       = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		workers        = flag.Int("workers", 0, "concurrent query evaluations (0: GOMAXPROCS)")
		queue          = flag.Int("queue", 64, "admission wait-queue depth (0: shed immediately when busy)")
		defaultTimeout = flag.Duration("default-timeout", 2*time.Second, "deadline for requests without timeout_ms")
		maxTimeout     = flag.Duration("max-timeout", 30*time.Second, "clamp on client-requested timeouts")
		maxBatch       = flag.Int("max-batch", 64, "max queries per /v1/psi/batch request")
		maxQueryNodes  = flag.Int("max-query-nodes", 32, "max nodes in one query graph")
		retryAfter     = flag.Duration("retry-after", time.Second, "static Retry-After fallback on 429/503 when no drain estimate is available")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		threads        = flag.Int("threads", 1, "candidate-evaluation workers inside one query")
		seed           = flag.Int64("seed", 42, "engine sampling seed")

		shards      = flag.Int("shards", 0, "run an in-process scatter-gather cluster of N shards (0: single engine)")
		shardOf     = flag.Int("shard-of", 0, "serve as one node of an N-shard fleet (requires -shard-index)")
		shardIndex  = flag.Int("shard-index", -1, "this node's shard index in [0, shard-of)")
		coordinator = flag.Bool("coordinator", false, "serve as a fleet coordinator scattering to -shard-addrs (no -graph needed)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated shard node addresses in shard-index order (coordinator mode)")
		shardProbe  = flag.Duration("shard-probe", 2*time.Second, "coordinator health-probe interval for per-shard /readyz rows")

		sampleInterval = flag.Duration("sample-interval", time.Second, "metrics sampling interval for /alertz and the Retry-After estimate (0: disable sampling and SLO alerting)")
		sloAvail       = flag.Float64("slo-availability", 0.99, "availability SLO target in (0,1) (0: disable the availability objective)")
		sloLatencyMS   = flag.Float64("slo-latency-ms", 0, "latency SLO threshold in milliseconds (0: no latency objective)")
		sloLatencyTgt  = flag.Float64("slo-latency-target", 0.95, "fraction of requests that must finish under -slo-latency-ms")
		sloFastWindow  = flag.Duration("slo-fast-window", time.Minute, "fast burn-rate window")
		sloSlowWindow  = flag.Duration("slo-slow-window", 5*time.Minute, "slow burn-rate window")
		sloBurnFactor  = flag.Float64("slo-burn-factor", 14.4, "burn-rate threshold both windows must exceed")
		sloFor         = flag.Duration("slo-for", 0, "time an alert stays pending before it fires")

		workloadTopK = flag.Int("workload-topk", 64, "shapes tracked by the /queryz workload sketch (0: disable workload analytics and query fingerprinting)")

		bundleDir      = flag.String("bundle-dir", "", "directory for auto-captured diagnostic bundles when an SLO alert fires (empty: manual /debugz/bundle only)")
		bundleCooldown = flag.Duration("bundle-cooldown", 5*time.Minute, "minimum time between auto-captured bundles per objective")
		bundleKeep     = flag.Int("bundle-keep", 8, "auto-captured bundles retained on disk before the oldest is evicted")
		exposePprof    = flag.Bool("expose-pprof", false, "mount /debug/pprof on the serving listener (off: 403; heap/goroutine dumps stay available via /debugz/bundle)")
	)
	flag.Parse()
	if err := run(config{
		graphPath: *graphPath, dataset: *dataset,
		addr: *addr, addrFile: *addrFile,
		workers: *workers, queue: *queue,
		defaultTimeout: *defaultTimeout, maxTimeout: *maxTimeout,
		maxBatch: *maxBatch, maxQueryNodes: *maxQueryNodes,
		retryAfter: *retryAfter, drainTimeout: *drainTimeout,
		threads: *threads, seed: *seed,
		shards:  *shards,
		shardOf: *shardOf, shardIndex: *shardIndex,
		coordinator: *coordinator, shardAddrs: *shardAddrs, shardProbe: *shardProbe,
		sampleInterval:  *sampleInterval,
		sloAvailability: *sloAvail,
		sloLatency:      time.Duration(*sloLatencyMS * float64(time.Millisecond)),
		sloLatencyTgt:   *sloLatencyTgt,
		sloFastWindow:   *sloFastWindow, sloSlowWindow: *sloSlowWindow,
		sloBurnFactor: *sloBurnFactor, sloFor: *sloFor,
		workloadTopK: *workloadTopK,
		bundleDir:    *bundleDir, bundleCooldown: *bundleCooldown,
		bundleKeep: *bundleKeep, exposePprof: *exposePprof,
	}, context.Background(), nil); err != nil {
		fmt.Fprintln(os.Stderr, "psi-serve:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags into run.
type config struct {
	graphPath, dataset string
	addr, addrFile     string
	workers, queue     int
	defaultTimeout     time.Duration
	maxTimeout         time.Duration
	maxBatch           int
	maxQueryNodes      int
	retryAfter         time.Duration
	drainTimeout       time.Duration
	threads            int
	seed               int64

	shards      int    // >0: in-process scatter-gather cluster
	shardOf     int    // >0: fleet shard node of N
	shardIndex  int    // this node's index in [0, shardOf)
	coordinator bool   // fleet coordinator mode
	shardAddrs  string // comma-separated shard addresses
	shardProbe  time.Duration

	sampleInterval  time.Duration // 0: no sampler, no SLO alerting
	sloAvailability float64
	sloLatency      time.Duration
	sloLatencyTgt   float64
	sloFastWindow   time.Duration
	sloSlowWindow   time.Duration
	sloBurnFactor   float64
	sloFor          time.Duration

	workloadTopK int // 0: workload analytics off, /queryz answers 503

	bundleDir      string // "": auto-capture disarmed, /debugz/bundle still live
	bundleCooldown time.Duration
	bundleKeep     int
	exposePprof    bool
}

// validate rejects contradictory serving-mode flag combinations up
// front, before any graph is loaded.
func (c config) validate() error {
	modes := 0
	if c.shards > 0 {
		modes++
	}
	if c.shardOf > 0 {
		modes++
	}
	if c.coordinator {
		modes++
	}
	if modes > 1 {
		return fmt.Errorf("-shards, -shard-of and -coordinator are mutually exclusive serving modes")
	}
	if c.shardOf > 0 && (c.shardIndex < 0 || c.shardIndex >= c.shardOf) {
		return fmt.Errorf("-shard-of %d needs -shard-index in [0,%d)", c.shardOf, c.shardOf)
	}
	if c.shardIndex >= 0 && c.shardOf <= 0 {
		return fmt.Errorf("-shard-index requires -shard-of")
	}
	if c.coordinator {
		if strings.TrimSpace(c.shardAddrs) == "" {
			return fmt.Errorf("-coordinator requires -shard-addrs")
		}
		if c.graphPath != "" || c.dataset != "" {
			return fmt.Errorf("a coordinator holds no graph; drop -graph/-dataset")
		}
	} else if c.shardAddrs != "" {
		return fmt.Errorf("-shard-addrs only applies with -coordinator")
	}
	return nil
}

// objectives assembles the SLO list from flags; empty when every
// objective is disabled.
func (c config) objectives() []obs.Objective {
	var objs []obs.Objective
	if c.sloAvailability > 0 {
		objs = append(objs, obs.AvailabilityObjective(
			c.sloAvailability, c.sloFastWindow, c.sloSlowWindow, c.sloBurnFactor, c.sloFor))
	}
	if c.sloLatency > 0 {
		objs = append(objs, obs.LatencyObjective(
			c.sloLatency, c.sloLatencyTgt, c.sloFastWindow, c.sloSlowWindow, c.sloBurnFactor, c.sloFor))
	}
	return objs
}

// buildEvaluator constructs the serving-mode evaluator: a plain warm
// engine by default, an in-process scatter-gather cluster with -shards,
// one fleet shard node with -shard-of/-shard-index, or a graph-less
// coordinator with -coordinator. g is nil exactly in coordinator mode.
func buildEvaluator(cfg config, g *graph.Graph, logger *slog.Logger) (server.Evaluator, error) {
	engOpts := smartpsi.Options{Threads: cfg.threads, Seed: cfg.seed}
	switch {
	case cfg.coordinator:
		addrs := strings.Split(cfg.shardAddrs, ",")
		coord, err := server.NewCoordinator(server.CoordinatorConfig{
			Addrs:         addrs,
			ProbeInterval: cfg.shardProbe,
		})
		if err != nil {
			return nil, err
		}
		logger.Info("coordinator armed",
			"shards", len(addrs), "probe_interval", cfg.shardProbe.String())
		return coord, nil

	case cfg.shards > 0:
		cluster, err := shard.NewCluster(g, shard.Options{Shards: cfg.shards, Engine: engOpts})
		if err != nil {
			return nil, err
		}
		logger.Info("graph loaded",
			"nodes", g.NumNodes(), "edges", g.NumEdges(), "labels", g.NumLabels())
		for _, st := range cluster.ShardStatuses() {
			logger.Info("shard warm", "shard", st.Index, "owned_nodes", st.OwnedNodes)
		}
		logger.Info("cluster armed", "shards", cfg.shards)
		return cluster, nil

	case cfg.shardOf > 0:
		node, err := shard.NewNode(g, shard.Options{Engine: engOpts}, cfg.shardOf, cfg.shardIndex)
		if err != nil {
			return nil, err
		}
		logger.Info("graph loaded",
			"nodes", g.NumNodes(), "edges", g.NumEdges(), "labels", g.NumLabels())
		logger.Info("shard node armed",
			"shard", cfg.shardIndex, "of", cfg.shardOf,
			"owned_nodes", node.ShardStatuses()[0].OwnedNodes)
		return node, nil
	}

	engine, err := smartpsi.NewEngine(g, engOpts)
	if err != nil {
		return nil, err
	}
	logger.Info("graph loaded",
		"nodes", g.NumNodes(), "edges", g.NumEdges(), "labels", g.NumLabels(),
		"signature_build", engine.SignatureBuildTime.String())
	return engine, nil
}

// run loads the graph, builds the engine, and serves until a signal
// arrives or parent is cancelled, then drains. The ready channel (test
// seam; main passes nil) receives the bound address once listening.
func run(cfg config, parent context.Context, ready chan<- string) error {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))

	if err := cfg.validate(); err != nil {
		return err
	}

	var g *graph.Graph
	var err error
	switch {
	case cfg.coordinator:
		// The coordinator never evaluates locally; every shard node holds
		// the whole graph.
	case cfg.graphPath != "":
		g, err = repro.LoadGraph(cfg.graphPath)
	case cfg.dataset != "":
		g, err = repro.GenerateDataset(cfg.dataset)
	default:
		return fmt.Errorf("need -graph or -dataset")
	}
	if err != nil {
		return err
	}

	// A serving process always collects: metrics, the /profilez
	// flight recorder and /modelz all feed from the same gate.
	obs.Enable(true)

	eval, err := buildEvaluator(cfg, g, logger)
	if err != nil {
		return err
	}
	if cl, ok := eval.(interface{ Close() }); ok {
		defer cl.Close()
	}

	// The windowed-telemetry sampler and SLO alerting ride on the same
	// background loop; -sample-interval 0 turns both off and the debug
	// endpoints answer 503.
	var sampler *obs.Sampler
	var alerts *obs.SLOSet
	if cfg.sampleInterval > 0 {
		sampler = obs.NewSampler(obs.Default, cfg.sampleInterval)
		if objs := cfg.objectives(); len(objs) > 0 {
			alerts = obs.NewSLOSet(sampler, objs)
			for _, o := range objs {
				logger.Info("slo objective armed", "name", o.Name, "target", o.Target,
					"fast_window", o.FastWindow.String(), "slow_window", o.SlowWindow.String(),
					"burn_factor", o.BurnFactor, "for", o.For.String())
			}
		}
		sampler.Start()
		defer sampler.Stop()
	}

	// Workload analytics: a bounded Space-Saving sketch of canonical
	// query shapes feeding /queryz; -workload-topk 0 leaves the serving
	// path entirely fingerprint-free.
	var workload *obs.Workload
	if cfg.workloadTopK > 0 {
		workload = obs.NewWorkload(cfg.workloadTopK)
		logger.Info("workload analytics armed", "topk", cfg.workloadTopK)
	}

	// The bundler is always built so /debugz/bundle works; auto-capture
	// on firing alerts only arms when -bundle-dir is set. It reads its
	// entries through the debug mux the server mounts it on.
	bundler, err := obs.NewBundler(obs.BundlerConfig{
		Dir:      cfg.bundleDir,
		Keep:     cfg.bundleKeep,
		Cooldown: cfg.bundleCooldown,
		Alerts:   alerts,
		Log:      logger,
	})
	if err != nil {
		return err
	}
	if bundler.Armed() {
		logger.Info("diagnostic bundles armed",
			"dir", cfg.bundleDir, "cooldown", cfg.bundleCooldown.String(), "keep", cfg.bundleKeep)
	}

	srv := server.NewServer(eval, server.Config{
		Workers:         cfg.workers,
		QueueDepth:      cfg.queue,
		ShedImmediately: cfg.queue == 0,
		DefaultTimeout:  cfg.defaultTimeout,
		MaxTimeout:      cfg.maxTimeout,
		MaxBatch:        cfg.maxBatch,
		MaxQueryNodes:   cfg.maxQueryNodes,
		RetryAfter:      cfg.retryAfter,
		Sampler:         sampler,
		Alerts:          alerts,
		Bundler:         bundler,
		Workload:        workload,
		ExposePprof:     cfg.exposePprof,
		Log:             logger,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if cfg.addrFile != "" {
		// Write to a temp file and rename so readers never see a
		// partial address.
		tmp := cfg.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, cfg.addrFile); err != nil {
			return err
		}
	}
	logger.Info("listening",
		"url", "http://"+bound,
		"workers", srv.Config().Workers, "queue", srv.Config().QueueDepth,
		"default_timeout", srv.Config().DefaultTimeout.String(),
		"sample_interval", cfg.sampleInterval.String())
	if ready != nil {
		ready <- bound
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	logger.Info("signal received; draining", "timeout", cfg.drainTimeout.String())
	// ctx is already cancelled here: the drain and shutdown bounds must
	// be fresh contexts or both calls would return immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain failed", "err", err.Error())
	} else {
		logger.Info("drain complete")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
