// Command hybridsimd is the simulation daemon: it serves the Spec/runner
// core over HTTP with a content-addressed result cache, so a fixed
// evaluation matrix re-requested many times costs one pass of simulation.
//
// Serve mode (default):
//
//	hybridsimd -addr :8080 -workers 8 -cache-entries 512 -cache-dir ./results
//
// Fleet mode federates daemons into a consistent-hash cluster (every member
// lists the same -peers set; placement needs no coordinator):
//
//	hybridsimd -addr :8080 -node-id a -peers a=http://hostA:8080,b=http://hostB:8080
//	hybridsimd -addr :8080 -node-id b -peers a=http://hostA:8080,b=http://hostB:8080
//
// Client mode (-client URL) drives a running daemon, for CI smoke tests and
// shell pipelines:
//
//	hybridsimd -client http://127.0.0.1:8080 -bench CG -system hybrid -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -bench CG -set l1d_size=65536
//	hybridsimd -client http://127.0.0.1:8080 -workload stream:stride=128 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -sweep -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -sweep=filter_entries=16,32,48 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -workload ptrchase -wsweep=hot_pct=0,50,100 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -stats
//	hybridsimd -workloads
//
// Plan mode (-plan, within client mode) asks a question instead of
// enumerating a grid — an internal/planner strategy searches the -sweep
// axes for the answer and every probe lands in the daemon's cache:
//
//	hybridsimd -client http://127.0.0.1:8080 -plan knee -bench IS -scale tiny -cores 4 \
//	    -sweep=filter_entries=4,8,12,16,20,24,28,32,36,40,44,48,52,56,60,64 \
//	    -objective 'hit_ratio~0.99'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workloads"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	// Serve-mode flags.
	addr := flag.String("addr", ":8080", "serve mode: HTTP listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = one per host CPU)")
	queue := flag.Int("queue", service.DefaultQueueDepth, "job queue depth; a full queue sheds submissions with 429")
	cacheEntries := flag.Int("cache-entries", service.DefaultCacheEntries, "in-memory result cache capacity (specs)")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk result tier (empty = memory only)")
	timelineCap := flag.Int("timeline-cap", service.DefaultTimelineCap, "retained run timelines; past it the oldest is dropped")
	pprofOn := flag.Bool("pprof", false, "serve mode: expose Go profiling handlers under /debug/pprof/ (opt-in)")
	nodeID := flag.String("node-id", "", "fleet mode: this daemon's member ID (must appear in -peers)")
	peers := flag.String("peers", "", "fleet mode: static membership, id=url,id=url,... (identical on every member)")

	// Client-mode flags.
	client := flag.String("client", "", "client mode: base URL of a running daemon")
	benchName := flag.String("bench", "CG", "client mode: benchmark to run")
	workloadFlag := flag.String("workload", "", "client mode: workload spelling name[:param=value,...] — overrides -bench (see -workloads)")
	sysName := flag.String("system", "hybrid", "client mode: machine (cache, hybrid, ideal)")
	scaleName := flag.String("scale", "tiny", "client mode: workload scale")
	cores := flag.Int("cores", 4, "client mode: core count (0 = Table 1 default)")
	var sweep sweepFlag
	flag.Var(&sweep, "sweep", "client mode: stream the workload x system matrix instead of one run; -sweep=knob=v1,v2,... also sweeps a machine knob (repeatable)")
	var wsweeps runner.MultiFlag
	flag.Var(&wsweeps, "wsweep", "client mode: sweep one workload parameter, name=v1,v2,... (repeatable; implies -sweep)")
	plan := flag.String("plan", "", "client mode: answer a question instead of sweeping a grid — strategy name (knee, pareto, halving); axes come from -sweep/-wsweep, the goal from -objective")
	var objectives runner.MultiFlag
	flag.Var(&objectives, "objective", "client mode, -plan: objective or constraint clause — metric | min:metric | max:metric | metric>=X | metric<=X | metric~slack (repeatable)")
	budget := flag.Int("budget", 0, "client mode, -plan: max executed probes (0 = strategy default)")
	pick := flag.String("pick", "", "client mode, -plan knee: smallest (default) or largest satisfying axis value")
	stats := flag.Bool("stats", false, "client mode: print daemon stats and exit")
	analyze := flag.Bool("analyze", false, "client mode: fetch the run's bottleneck analysis (single run) or a cross-run sweep analysis (-sweep)")
	timeout := flag.Duration("timeout", 0, "client mode: per-request deadline forwarded to the daemon (0 = none)")
	retries := flag.Int("retries", 2, "client mode: automatic retries after a load-shed (429) or unavailable (503) answer")
	var sets runner.MultiFlag
	flag.Var(&sets, "set", "client mode: override one machine knob, name=value (repeatable; cores=N wins over -cores)")
	listWorkloads := flag.Bool("workloads", false, "list the workload catalog (names, params, defaults) and exit")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *version {
		fmt.Println("hybridsimd", buildinfo.Version())
		return
	}
	if *listWorkloads {
		report.WorkloadCatalog(os.Stdout)
		return
	}
	if flag.NArg() != 0 {
		// -sweep is a bool-style flag, so a space-separated payload
		// ("-sweep knob=v1,v2") would land here as a positional argument and
		// silently drop it plus every flag after it. Fail loudly instead.
		fatalf("unexpected arguments %q (axis payloads need the -sweep=knob=v1,v2,... form)", flag.Args())
	}

	if *client != "" {
		// A sweep defaults to the full workload x system matrix; flags the
		// user explicitly passed narrow it. -wsweep axes need a sweep to
		// ride on.
		if len(wsweeps) > 0 {
			sweep.enabled = true
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		runClient(*client, *benchName, *workloadFlag, *sysName, *scaleName, *cores, sweep, wsweeps,
			*plan, objectives, *budget, *pick, *stats, *analyze, *timeout, *retries, sets, explicit)
		return
	}
	serve(*addr, *workers, *queue, *cacheEntries, *cacheDir, *timelineCap, *pprofOn, *nodeID, *peers)
}

// parsePeers decodes the -peers membership list ("id=url,id=url,...").
func parsePeers(s string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		nodes = append(nodes, cluster.Node{ID: id, URL: strings.TrimRight(u, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return nodes, nil
}

// sweepFlag keeps the historical bare "-sweep" boolean (stream the full
// matrix) while also accepting repeatable "-sweep=knob=v1,v2,..." axis
// payloads — the flag package routes both here because IsBoolFlag is true.
type sweepFlag struct {
	enabled bool
	axes    runner.MultiFlag
}

func (f *sweepFlag) String() string   { return fmt.Sprint(f.axes) }
func (f *sweepFlag) IsBoolFlag() bool { return true }
func (f *sweepFlag) Set(s string) error {
	switch s {
	case "true":
		f.enabled = true
	case "false":
		f.enabled = false
		f.axes = nil
	default:
		f.enabled = true
		f.axes = append(f.axes, s)
	}
	return nil
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully:
// in-flight HTTP requests (including forwarded peer work) first, then the
// cluster's outstanding transfers, then the worker pool.
func serve(addr string, workers, queue, cacheEntries int, cacheDir string, timelineCap int, pprofOn bool, nodeID, peers string) {
	cache, err := rescache.New(cacheEntries, cacheDir)
	if err != nil {
		fatalf("%v", err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cache.SetLogger(log)

	var cl *cluster.Cluster
	if peers != "" {
		if nodeID == "" {
			fatalf("-peers requires -node-id")
		}
		nodes, err := parsePeers(peers)
		if err != nil {
			fatalf("%v", err)
		}
		if cl, err = cluster.New(cluster.Options{Self: nodeID, Peers: nodes, Log: log}); err != nil {
			fatalf("%v", err)
		}
	} else if nodeID != "" {
		fatalf("-node-id requires -peers")
	}

	srv := service.New(service.Options{Workers: workers, QueueDepth: queue, Cache: cache,
		TimelineCap: timelineCap, Log: log, Cluster: cl})
	defer srv.Close()

	handler := srv.Handler()
	if pprofOn {
		// Opt-in profiling endpoints: live CPU/heap/goroutine profiles of
		// a serving daemon without restarting it.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "hybridsimd listening on %s (cache %d entries", addr, cacheEntries)
	if cacheDir != "" {
		fmt.Fprintf(os.Stderr, " + disk tier %s", cacheDir)
	}
	if cl != nil {
		fmt.Fprintf(os.Stderr, ", fleet member %s", nodeID)
	}
	fmt.Fprintln(os.Stderr, ")")
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	// ListenAndServe returns the instant Shutdown begins, while in-flight
	// handlers — including requests forwarded here by fleet peers — are
	// still draining. Wait for Shutdown to finish before tearing anything
	// down, so a drain-window request is answered, not cancelled mid-run;
	// then stop the cluster's own outstanding transfers, and only then
	// (via the deferred Close) the worker pool.
	<-shutdownDone
	if cl != nil {
		cl.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		cl.Drain(drainCtx)
		cancel()
	}
	fmt.Fprintln(os.Stderr, "hybridsimd: shut down")
}

// runClient executes one client-mode action against a running daemon.
// explicit records which flags the user actually passed (flag.Visit).
func runClient(base, benchName, workloadFlag, sysName, scaleName string, cores int, sweep sweepFlag, wsweeps []string,
	plan string, objectives []string, budget int, pick string, stats, analyze bool, timeout time.Duration, retries int, sets []string, explicit map[string]bool) {
	c := &service.Client{Base: base, Retries: retries}
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		fatalf("daemon not healthy: %v", err)
	}
	overrides, err := config.ParseOverrides(sets)
	if err != nil {
		fatalf("%v", err)
	}
	if overrides.Cores == 0 {
		overrides.Cores = cores
	}
	// -workload overrides -bench and may carry a parameter payload.
	spelling := benchName
	if workloadFlag != "" {
		spelling = workloadFlag
	}
	bench, params, err := workloads.ParseWorkload(spelling)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case stats:
		st, err := c.Stats(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		total := st.Cache.Hits + st.Cache.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(st.Cache.Hits) / float64(total)
		}
		fmt.Printf("cache: entries=%d/%d hits=%d (mem=%d disk=%d dedup=%d) misses=%d hit-rate=%.2f%%\n",
			st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.MemHits,
			st.Cache.DiskHits, st.Cache.Dedup, st.Cache.Misses, rate*100)
		fmt.Printf("queue: depth=%d/%d workers=%d\n", st.QueueDepth, st.QueueCap, st.Workers)
		fmt.Printf("runs:  submitted=%d completed=%d failed=%d rejected=%d\n",
			st.Submitted, st.Completed, st.Failed, st.Rejected)

	case plan != "":
		axes, err := runner.ParseKnobAxes(sweep.axes)
		if err != nil {
			fatalf("%v", err)
		}
		waxes, err := runner.ParseParamAxes(wsweeps)
		if err != nil {
			fatalf("%v", err)
		}
		objs, cons, err := planner.ParseObjectives(objectives)
		if err != nil {
			fatalf("%v", err)
		}
		req := service.PlanRequest{
			Strategy:  plan,
			Benchmark: workloads.FormatWorkload(bench, params),
			System:    sysName,
			Scale:     scaleName,
			Sweep:     axes, WSweep: waxes,
			Constraint: cons,
			Pick:       pick, Budget: budget,
		}
		// One objective clause is the halving form; several are pareto's.
		if len(objs) == 1 {
			req.Objective = &objs[0]
		} else {
			req.Objectives = objs
		}
		if !overrides.IsZero() {
			req.Overrides = &overrides
		}
		var probes []planner.Probe
		v, err := c.Plan(ctx, req, timeout, func(p planner.Probe) error {
			probes = append(probes, p)
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
		report.PlanText(os.Stdout, probes, v)

	case sweep.enabled:
		axes, err := runner.ParseKnobAxes(sweep.axes)
		if err != nil {
			fatalf("%v", err)
		}
		waxes, err := runner.ParseParamAxes(wsweeps)
		if err != nil {
			fatalf("%v", err)
		}
		m := service.Matrix{Scale: scaleName, Sweep: axes, WSweep: waxes, Analyze: analyze}
		if explicit["bench"] || explicit["workload"] {
			m.Benchmarks = []string{workloads.FormatWorkload(bench, params)}
		}
		if explicit["system"] {
			m.Systems = []string{sysName}
		}
		if !overrides.IsZero() {
			m.Overrides = &overrides
		}
		sum, err := c.Sweep(ctx, m, timeout,
			func(rec service.RunRecord) error {
				if rec.Status != "done" || rec.Results == nil {
					fmt.Printf("[%d/%d] %s %s: %s\n", rec.Index+1, rec.Total, rec.Spec.Key(), rec.Status, rec.Error)
					return nil
				}
				fmt.Printf("[%d/%d] %s cycles=%d cached=%v wall=%.1fms\n",
					rec.Index+1, rec.Total, rec.Spec.Key(), rec.Results.Cycles, rec.Cached, rec.WallMS)
				return nil
			})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("sweep: %d runs, %d failed, %.1fs wall, cache hit-rate %s\n",
			sum.Runs, sum.Failed, sum.WallMS/1000, hitRate(sum.Cache))
		if sum.Analysis != nil {
			report.SweepFindingsText(os.Stdout, *sum.Analysis)
		}
		if sum.Failed > 0 {
			os.Exit(1)
		}

	default:
		sys, err := config.ParseMemorySystem(sysName)
		if err != nil {
			fatalf("%v", err)
		}
		scale, err := workloads.ParseScale(scaleName)
		if err != nil {
			fatalf("%v", err)
		}
		spec := system.Spec{System: sys, Benchmark: bench,
			Params: workloads.FormatParams(bench, params), Scale: scale, Overrides: overrides}
		rec, err := c.Run(ctx, spec, timeout)
		if err != nil {
			fatalf("%v", err)
		}
		r := rec.Results
		fmt.Printf("%s key=%s cached=%v wall=%.1fms\n", spec.Key(), rec.Key, rec.Cached, rec.WallMS)
		fmt.Printf("  cycles=%d retired=%d packets=%d energy=%.0f\n",
			r.Cycles, r.Retired, r.TotalPkts, r.Energy.Total())
		if analyze {
			rep, err := c.Analysis(ctx, rec.Key)
			if err != nil {
				fatalf("%v", err)
			}
			report.FindingsText(os.Stdout, rep)
		}
	}
}

func hitRate(st rescache.Stats) string {
	total := st.Hits + st.Misses
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", float64(st.Hits)/float64(total)*100)
}
