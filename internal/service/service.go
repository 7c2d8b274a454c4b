// Package service exposes the Spec/runner core as a long-lived HTTP daemon
// with a content-addressed result cache (internal/rescache) in front of it.
//
// The API is deliberately small:
//
//	POST /v1/runs            submit one Spec, a list, or a matrix enumeration
//	                         (?wait=true blocks for results, ?timeout=30s
//	                         bounds the submitted work); specs carry workload
//	                         "params" and machine-knob "overrides"; matrices
//	                         add per-knob "sweep" axes (config.Knobs
//	                         registry) and per-workload-parameter "wsweep"
//	                         axes (workloads registry)
//	GET  /v1/runs/{key}      poll one run by its canonical Spec.Hash
//	GET  /v1/sweep           run a workload x system x knob x param matrix
//	                         and stream one JSON line per completed run
//	                         (?set=knob=value fixes a knob on every run,
//	                         ?sweep=knob=v1,v2,... adds a knob axis,
//	                         ?workload=name:k=v names a parameterized
//	                         workload, ?wsweep=param=v1,v2,... adds a
//	                         workload-parameter axis; all repeat)
//	POST /v1/plan            answer a question instead of enumerating a
//	                         grid: an internal/planner strategy (knee
//	                         bisection, Pareto refinement, budgeted
//	                         halving) searches the named axes, streaming
//	                         one JSON line per executed probe and a final
//	                         verdict line; probes share the sweep path, so
//	                         they land in the cache and the fleet
//	GET  /v1/runs/{key}/timeline
//	                         the sampled counter time series of a run that
//	                         was submitted with a "telemetry" block
//	GET  /v1/runs/{key}/analysis
//	                         rule-driven bottleneck findings for a completed
//	                         run (internal/analysis), derived on demand from
//	                         its results, resolved config, and — when the
//	                         run was observed — its stored timeline
//	GET  /v1/cluster         fleet membership, ring state, ?key= ownership
//	GET  /v1/healthz         liveness plus queue depth and build version
//	GET  /v1/stats           cache hit rate, queue, and run counters
//	GET  /metrics            Prometheus text exposition (internal/metrics)
//
// Every endpoint that runs a Spec — POST /v1/runs, GET /v1/sweep and the
// /v1/plan probes — goes through one pipeline (Server.acquire): the result
// cache, then the in-flight registry, then the ring owner in fleet mode,
// then a bounded job queue drained by a fixed pool of worker goroutines,
// each of which executes via rescache.RunMissed. A Spec the daemon has seen
// before costs a map lookup, and N concurrent requests for the same Spec
// join one registered job, so they cost one simulation. A shared run is
// cancelled only when its last waiter leaves — a sweep or plan when its
// request ends, a POST at its ?timeout — and system.Machine.RunContext
// polls the context mid-run.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size; values < 1 mean one per
	// host CPU. Each in-flight run costs one wired machine of memory.
	Workers int

	// QueueDepth bounds the job queue; values < 1 mean DefaultQueueDepth.
	// A full queue sheds POST /v1/runs with 429 + Retry-After and
	// backpressures streaming sweeps.
	QueueDepth int

	// Cache is the result store; nil means a fresh memory-only cache of
	// DefaultCacheEntries specs.
	Cache *rescache.Cache

	// TimelineCap bounds the retained run timelines; past it the oldest is
	// dropped (re-submit with telemetry to regenerate). Values < 1 mean
	// DefaultTimelineCap.
	TimelineCap int

	// Log receives structured request and run logs; nil discards them
	// (tests, embedded use).
	Log *slog.Logger

	// Cluster federates this daemon into a sweep fleet (internal/cluster):
	// every run is owner-routed by Spec.Hash over the consistent-hash ring
	// and computed here only when this node owns it or the forward to its
	// owner failed, so sweeps and plans fan out across the fleet. nil means
	// single-node operation.
	Cluster *cluster.Cluster
}

// peerRetries is how many times a request to a peer that answered 429 or
// 503 is reissued; a forward whose retries run out is admitted locally.
const peerRetries = 2

// Defaults for Options zero values.
const (
	DefaultQueueDepth   = 256
	DefaultCacheEntries = 512
	DefaultTimelineCap  = 128
)

// MaxRequestBody bounds a submission body; a Spec list large enough to hit
// this is a client bug, not a workload.
const MaxRequestBody = 1 << 20

// ErrQueueFull reports a bounded-queue rejection.
var ErrQueueFull = errors.New("service: job queue full")

// Server owns the queue, the worker pool, and the run registry. Create it
// with New, expose Handler over any http.Server, and Close it to stop the
// workers and cancel everything in flight.
type Server struct {
	workers int
	cache   *rescache.Cache
	cluster *cluster.Cluster   // nil outside fleet mode
	peers   map[string]*Client // by member ID: the one hop to each peer
	queue   chan *job
	qmu     sync.Mutex
	freed   chan struct{} // closed and replaced at every worker pickup

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	runs map[string]*job // in-flight registry by Spec.Hash (see acquire)

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64

	log   *slog.Logger
	start time.Time

	// Operational metrics (GET /metrics).
	reg           *metrics.Registry
	runSeconds    *metrics.HistogramVec // run wall time by outcome
	httpReqs      *metrics.CounterVec   // requests by route pattern and code
	sweepsTotal   *metrics.Counter
	sweepRuns     *metrics.Counter
	sweepActive   *metrics.Gauge
	findingsTotal *metrics.CounterVec // analysis findings by rule and severity
	plansTotal    *metrics.CounterVec // plans by strategy and outcome
	planProbes    *metrics.Counter
	planHits      *metrics.Counter

	// Timelines of telemetry-bearing runs, keyed like the cache but stored
	// separately: a timeline describes one observed execution, not the
	// result identity, so it must not affect Spec.Hash addressing.
	tmu         sync.Mutex
	timelines   map[string]*telemetry.TimeSeries
	torder      []string
	timelineCap int
}

func (s *Server) storeTimeline(key string, ts telemetry.TimeSeries) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if _, ok := s.timelines[key]; !ok {
		s.torder = append(s.torder, key)
		if len(s.torder) > s.timelineCap {
			delete(s.timelines, s.torder[0])
			s.torder = s.torder[1:]
		}
	}
	s.timelines[key] = &ts
}

func (s *Server) timeline(key string) (*telemetry.TimeSeries, bool) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	ts, ok := s.timelines[key]
	return ts, ok
}

// hasTimeline reports whether the stored timeline for key was sampled every
// interval cycles. The store keeps only the latest timeline per key.
func (s *Server) hasTimeline(key string, interval uint64) bool {
	ts, ok := s.timeline(key)
	return ok && ts.Interval == interval
}

// initMetrics registers the daemon's operational metrics. Queue, worker,
// run-counter, and cache families read live state at scrape time; the
// histograms and sweep counters are written on the run paths.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	r.Info("hybridsimd_build_info", "Build version of the running daemon.",
		map[string]string{"version": buildinfo.Version()})
	r.GaugeFunc("hybridsimd_queue_depth", "Jobs waiting in the bounded queue.",
		func() int64 { return int64(len(s.queue)) })
	r.GaugeFunc("hybridsimd_queue_capacity", "Bound of the job queue.",
		func() int64 { return int64(cap(s.queue)) })
	r.GaugeFunc("hybridsimd_workers", "Simulation worker-pool size.",
		func() int64 { return int64(s.workers) })
	r.CounterFunc("hybridsimd_runs_submitted_total", "Jobs accepted into the queue.", s.submitted.Load)
	r.CounterFunc("hybridsimd_runs_completed_total", "Jobs finished successfully.", s.completed.Load)
	r.CounterFunc("hybridsimd_runs_failed_total", "Jobs finished with an error.", s.failed.Load)
	r.CounterFunc("hybridsimd_runs_rejected_total", "Submissions bounced off a full queue.", s.rejected.Load)
	s.runSeconds = r.HistogramVec("hybridsimd_run_duration_seconds",
		"Wall time to answer one run, by outcome (cached, computed, failed).",
		nil, "outcome")
	r.CounterFunc("hybridsimd_cache_hits_total", "Cache hits, memory and disk tiers.",
		func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("hybridsimd_cache_memory_hits_total", "Memory-tier cache hits.",
		func() uint64 { return s.cache.Stats().MemHits })
	r.CounterFunc("hybridsimd_cache_disk_hits_total", "Disk-tier cache hits.",
		func() uint64 { return s.cache.Stats().DiskHits })
	r.CounterFunc("hybridsimd_cache_misses_total", "Requests that executed a simulation.",
		func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("hybridsimd_cache_evictions_total", "Memory-tier LRU evictions.",
		func() uint64 { return s.cache.Stats().Evictions })
	r.CounterFunc("hybridsimd_cache_disk_errors_total",
		"Corrupt or unreadable disk-tier entries skipped at lookup.",
		func() uint64 { return s.cache.Stats().DiskErrors })
	r.CounterFunc("hybridsimd_cache_peer_fills_total",
		"Results adopted from fleet peers (runs forwarded to their owners).",
		func() uint64 { return s.cache.Stats().PeerFills })
	r.GaugeFunc("hybridsimd_cache_entries", "Memory-tier population.",
		func() int64 { return int64(s.cache.Stats().Entries) })
	r.GaugeFunc("hybridsimd_cache_capacity", "Memory-tier bound.",
		func() int64 { return int64(s.cache.Stats().Capacity) })
	r.GaugeFunc("hybridsimd_timelines", "Run timelines currently retained.",
		func() int64 {
			s.tmu.Lock()
			defer s.tmu.Unlock()
			return int64(len(s.timelines))
		})
	r.GaugeFunc("hybridsimd_timelines_capacity", "Bound of the timeline store.",
		func() int64 { return int64(s.timelineCap) })
	s.sweepsTotal = r.Counter("hybridsimd_sweeps_total", "GET /v1/sweep requests started.")
	s.sweepRuns = r.Counter("hybridsimd_sweep_runs_total", "Runs fanned out by sweep requests.")
	s.sweepActive = r.Gauge("hybridsimd_sweeps_active", "Sweep streams currently open.")
	s.findingsTotal = r.CounterVec("hybridsimd_analysis_findings_total",
		"Analysis findings emitted, by rule and severity.", "rule", "severity")
	s.plansTotal = r.CounterVec("hybridsimd_plans_total",
		"POST /v1/plan requests finished, by strategy and outcome (converged, exhausted, failed, canceled).",
		"strategy", "outcome")
	s.planProbes = r.Counter("hybridsimd_plan_probes_total", "Probes executed by planner strategies.")
	s.planHits = r.Counter("hybridsimd_plan_cache_hits_total", "Planner probes answered from the result cache.")
	s.httpReqs = r.CounterVec("hybridsimd_http_requests_total",
		"API requests by route pattern and status code.", "path", "code")
	r.RegisterProcess("hybridsimd_", s.start)
	if s.cluster != nil {
		r.Attach(s.cluster.Metrics())
	}
}

// New starts the worker pool and returns a ready Server.
func New(opt Options) *Server {
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	depth := opt.QueueDepth
	if depth < 1 {
		depth = DefaultQueueDepth
	}
	cache := opt.Cache
	if cache == nil {
		cache, _ = rescache.New(DefaultCacheEntries, "")
	}
	tcap := opt.TimelineCap
	if tcap < 1 {
		tcap = DefaultTimelineCap
	}
	log := opt.Log
	if log == nil {
		// A level above every one the daemon logs at: nothing is formatted.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		workers:     workers,
		cache:       cache,
		cluster:     opt.Cluster,
		queue:       make(chan *job, depth),
		freed:       make(chan struct{}),
		baseCtx:     ctx,
		cancel:      cancel,
		runs:        make(map[string]*job),
		log:         log,
		start:       time.Now(),
		timelines:   make(map[string]*telemetry.TimeSeries),
		timelineCap: tcap,
	}
	if s.cluster != nil {
		s.peers = make(map[string]*Client)
		for _, m := range s.cluster.Info().Members {
			if url, hc, ok := s.cluster.Peer(m.ID); ok {
				s.peers[m.ID] = &Client{Base: url, HTTP: hc, Retries: peerRetries}
			}
		}
	}
	s.initMetrics()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the workers and cancels every queued and in-flight run. Jobs
// still sitting in the queue are finished with the cancellation error, so
// no handler or client blocked on a job's completion can hang.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.settle(j, system.Results{}, false, 0, s.baseCtx.Err(), "failed", 0)
		default:
			return
		}
	}
}

// Cache exposes the result store (drivers share it with direct runs).
func (s *Server) Cache() *rescache.Cache { return s.cache }

// worker drains the queue until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.freeSlot()
			s.execute(j)
		}
	}
}

// ---------------------------------------------------------------------------
// The request pipeline

// waiter is one request's claim on a run: what it needs from the run, and
// when it stops waiting for it.
type waiter struct {
	// ctx is a stream's request context (a sweep or a plan probe): the
	// waiter leaves when it ends, and until then a queue admission waits
	// for a slot. nil marks a POST /v1/runs waiter, which leaves at timeout
	// (zero: never) and whose admission is shed at once on a full queue.
	ctx     context.Context
	timeout time.Duration

	// tel, when it sets an interval, obliges the run to leave a timeline.
	tel *TelemetryOptions

	// forwarded marks a run a peer sent here as its owner: it is computed
	// here, never forwarded again — one hop, never a loop.
	forwarded bool
}

func (w waiter) observed() bool { return w.tel != nil && w.tel.Interval > 0 }

// acquire is the one way the daemon turns a Spec into Results; key is
// spec.Hash(). POST /v1/runs, GET /v1/sweep and the /v1/plan probes all
// come through here, and every run passes the same stages in order:
//
//  1. cache: a hit is an already-done job and never touches the registry;
//  2. in-flight registry: an identical pending run is joined, not repeated;
//  3. owner: a run another member owns goes to it (see forward);
//  4. admission: the job is queued (see admit);
//  5. compute: a worker runs it through the cache (see execute).
//
// The job is never nil. A non-nil error is a refusal (shed or shutting
// down), and the job is then already failed with it.
func (s *Server) acquire(spec system.Spec, key string, w waiter) (*job, error) {
	// A closing server has no workers left; accepting the job would strand
	// its waiters forever.
	if err := s.baseCtx.Err(); err != nil {
		s.rejected.Add(1)
		err = fmt.Errorf("service: shutting down: %w", err)
		return endedJob(spec, key, system.Results{}, err), err
	}
	// A telemetry request takes the cache answer only when a timeline at
	// its interval exists too; otherwise the run is executed (once) to
	// produce it.
	if e, ok := s.cache.EntryKey(key); ok && (!w.observed() || s.hasTimeline(key, w.tel.Interval)) {
		return endedJob(spec, key, e.Res, nil), nil
	}
	j, fresh := s.register(spec, key, w)
	if !fresh {
		return j, nil
	}
	if s.cluster != nil && !w.observed() && !w.forwarded {
		if owner, local := s.cluster.Owner(key); !local {
			go s.forward(j, owner)
			return j, nil
		}
	}
	return j, s.admit(j)
}

// register joins w to the registered job for key, or registers a fresh
// one (fresh reports which). A telemetry waiter upgrades a job no worker
// has started; one already running cannot grow a timeline, and one that
// records at another interval cannot serve it, so the waiter gets a fresh
// job that runs after it.
func (s *Server) register(spec system.Spec, key string, w waiter) (j *job, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.runs[key]; ok && j.join(w) {
		s.claim(j, w)
		return j, false
	}
	s.gcRunsLocked()
	ctx, cancel := context.WithCancel(s.baseCtx)
	j = &job{
		spec:   spec,
		key:    key,
		stream: w.ctx != nil,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: statusPending,
	}
	if w.observed() {
		j.tel = w.tel
	}
	s.runs[key] = j
	s.claim(j, w)
	return j, true
}

// claim counts w among j's waiters and arranges for it to leave: a stream
// when its request ends, a POST at its timeout, or never. A job a POST has
// claimed stays pollable in the registry after it ends. Caller holds s.mu.
func (s *Server) claim(j *job, w waiter) {
	j.waiters++
	if w.ctx != nil {
		context.AfterFunc(w.ctx, func() { s.leave(j) })
		return
	}
	j.polled = true
	if w.timeout > 0 {
		time.AfterFunc(w.timeout, func() { s.leave(j) })
	}
}

// leave drops one waiter from j. The last one to go cancels the job, so a
// shared run lives exactly as long as somebody wants it.
func (s *Server) leave(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.waiters--; j.waiters == 0 {
		j.cancel()
	}
}

// runsGCThreshold bounds the registry: past it, ended jobs are swept out
// (their Results stay reachable through the cache).
const runsGCThreshold = 4096

// gcRunsLocked evicts ended jobs once the registry outgrows the threshold.
// Caller holds s.mu.
func (s *Server) gcRunsLocked() {
	if len(s.runs) <= runsGCThreshold {
		return
	}
	for k, j := range s.runs {
		j.mu.Lock()
		ended := j.status == statusDone || j.status == statusFailed
		j.mu.Unlock()
		if ended {
			delete(s.runs, k)
		}
	}
}

// admit puts j on the queue; it is the only place a job enters it. The
// request kind that created j picks the overload policy: a POST's job is
// shed at once with ErrQueueFull (answered 429), a stream's job waits for a
// worker to free a slot for as long as it has waiters.
func (s *Server) admit(j *job) error {
	for {
		freed := s.slotFreed()
		if err := j.ctx.Err(); err != nil {
			s.settle(j, system.Results{}, false, 0, err, "failed", 0)
			return nil
		}
		select {
		case s.queue <- j:
			s.submitted.Add(1)
			return nil
		default:
		}
		if !j.stream {
			s.rejected.Add(1)
			j.finish(system.Results{}, false, 0, ErrQueueFull)
			return ErrQueueFull
		}
		select {
		case <-freed:
		case <-j.ctx.Done():
		}
	}
}

// slotFreed returns a channel that closes at the next worker pickup. Taken
// before a full-queue check, it cannot miss the pickup that follows.
func (s *Server) slotFreed() <-chan struct{} {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.freed
}

// freeSlot wakes every admission waiting for a queue slot.
func (s *Server) freeSlot() {
	s.qmu.Lock()
	close(s.freed)
	s.freed = make(chan struct{})
	s.qmu.Unlock()
}

// forward runs j on its ring owner as a forwarded POST /v1/runs?wait=true
// and adopts the answer into the local cache, so repeats are free here too.
// The record keeps the owner's cached flag and wall time. Any failure or
// non-200 answer — owner down, shed after retries, a malformed reply —
// falls back to local admission, so a run always completes with whatever
// members remain.
func (s *Server) forward(j *job, owner string) {
	t0 := time.Now()
	rec, err := s.askOwner(j, owner)
	switch {
	case err != nil:
		s.log.Warn("cluster: forward failed, running locally", "peer", owner, "key", j.key, "err", err)
	case j.observed():
		// A telemetry waiter upgraded j while it was away: the adopted
		// result has no timeline, so the run is redone here.
		s.cache.FillPeer(rec.Spec, *rec.Results)
	default:
		s.cache.FillPeer(rec.Spec, *rec.Results)
		wall := time.Duration(rec.WallMS * float64(time.Millisecond))
		s.settle(j, *rec.Results, rec.Cached, wall, nil, "forwarded", time.Since(t0))
		return
	}
	// A shed fails j itself, so its waiters see ErrQueueFull.
	_ = s.admit(j)
}

// askOwner sends j to owner and returns the owner's completed record. The
// record must be the run it claims to be: a confused peer must not poison
// the local cache.
func (s *Server) askOwner(j *job, owner string) (RunRecord, error) {
	runs, err := s.peers[owner].Submit(j.ctx, SubmitRequest{Spec: &j.spec}, true, 0)
	if err != nil {
		return RunRecord{}, err
	}
	if len(runs) != 1 || runs[0].Status != string(statusDone) ||
		runs[0].Results == nil || runs[0].Spec.Hash() != j.key {
		return RunRecord{}, errors.New("owner's answer is not the completed run")
	}
	return runs[0], nil
}

// execute is the compute stage: one worker runs one job through the cache.
func (s *Server) execute(j *job) {
	tel, err := j.start()
	if err != nil {
		// Every waiter left (sweep disconnect, deadline) before a worker
		// was free: drop the job instead of burning a worker on it.
		s.settle(j, system.Results{}, false, 0, err, "failed", 0)
		return
	}
	t0 := time.Now()
	res, hit, wall, err := s.compute(j.ctx, j.spec, j.key, tel)
	s.settle(j, res, hit, wall, err, outcomeOf(hit, err), time.Since(t0))
}

// compute runs spec through rescache.RunMissed: acquire has already missed
// key in both tiers, so only memory is checked again. With telemetry it
// always executes, under a Recorder, since a cached result has no
// timeline, and then stores the result with Put.
func (s *Server) compute(ctx context.Context, spec system.Spec, key string, tel *TelemetryOptions) (res system.Results, hit bool, wall time.Duration, err error) {
	var rec *telemetry.Recorder
	if tel != nil {
		rec = telemetry.NewRecorder(tel.Interval, 0)
	}
	run := func(ctx context.Context) (system.Results, error) {
		t0 := time.Now()
		defer func() { wall = time.Since(t0) }()
		m, err := spec.Build()
		if err != nil {
			return system.Results{}, err
		}
		if rec != nil {
			m.Attach(rec)
		}
		return m.RunContext(ctx, spec.MaxEvents)
	}
	if rec == nil {
		res, hit, err = s.cache.RunMissed(ctx, spec, key, run)
		return res, hit, wall, err
	}
	if res, err = run(ctx); err == nil {
		s.cache.Put(spec, res)
		s.storeTimeline(key, rec.Series())
	}
	return res, false, wall, err
}

func outcomeOf(hit bool, err error) string {
	switch {
	case err != nil:
		return "failed"
	case hit:
		return "cached"
	default:
		return "computed"
	}
}

// settle records j's counters, latency and log line, drops it from the
// registry unless a POST polls it, and then publishes its outcome to its
// waiters — last, so a waiter that wakes sees the counters already moved.
func (s *Server) settle(j *job, res system.Results, cached bool, wall time.Duration, err error, outcome string, took time.Duration) {
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	s.runSeconds.With(outcome).Observe(took.Seconds())
	if err != nil {
		s.log.Info("run finished", "key", j.key, "spec", j.spec.Key(),
			"outcome", outcome, "wall_ms", took.Milliseconds(), "err", err)
	} else {
		s.log.Info("run finished", "key", j.key, "spec", j.spec.Key(),
			"outcome", outcome, "wall_ms", took.Milliseconds())
	}
	s.mu.Lock()
	if !j.polled && s.runs[j.key] == j {
		delete(s.runs, j.key)
	}
	s.mu.Unlock()
	j.finish(res, cached, wall, err)
}

// ---------------------------------------------------------------------------
// Jobs

type jobStatus string

const (
	statusPending jobStatus = "pending"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one run in the pipeline. done closes exactly once, when the
// terminal state (done/failed) is published.
type job struct {
	spec   system.Spec
	key    string
	stream bool // created by a sweep or plan: admission waits for a slot
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Guarded by Server.mu.
	waiters int  // claims not yet left; the last to leave cancels ctx
	polled  bool // a POST claimed it: stays registered after it ends

	mu     sync.Mutex
	status jobStatus
	tel    *TelemetryOptions // non-nil: record a timeline (see compute)
	res    system.Results
	cached bool
	wall   time.Duration
	err    error
}

// endedJob is a job that is over before it starts: a cache hit at acquire
// time (no queue round-trip, no worker) when err is nil, else a refusal.
func endedJob(spec system.Spec, key string, res system.Results, err error) *job {
	j := &job{spec: spec, key: key, done: make(chan struct{})}
	j.finish(res, err == nil, 0, err)
	return j
}

// join reports whether w can wait on j: j has not ended, still has
// waiters, and will produce what w needs — upgrading it to record a
// timeline when no worker has started it yet. A job that records at another
// interval cannot serve w.
func (j *job) join(w waiter) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ctx.Err() != nil || (j.status != statusPending && j.status != statusRunning) {
		return false
	}
	if !w.observed() {
		return true
	}
	if j.tel == nil {
		if j.status != statusPending {
			return false
		}
		j.tel = w.tel
	}
	return j.tel.Interval == w.tel.Interval
}

// observed reports whether j must leave a timeline.
func (j *job) observed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tel != nil
}

// start marks j running — past this point no telemetry upgrade reaches it
// — and returns its telemetry, or the error of a job nobody waits for.
func (j *job) start() (*TelemetryOptions, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	j.status = statusRunning
	return j.tel, nil
}

// shed reports whether admission refused j for a full queue.
func (j *job) shed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return errors.Is(j.err, ErrQueueFull)
}

func (j *job) finish(res system.Results, cached bool, wall time.Duration, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = statusFailed
		j.err = err
	} else {
		j.status = statusDone
		j.res = res
		j.cached = cached
	}
	j.wall = wall
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
}

// record snapshots the job as its wire representation.
func (j *job) record() RunRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := RunRecord{
		Key:    j.key,
		Spec:   j.spec,
		Status: string(j.status),
		Cached: j.cached,
		WallMS: float64(j.wall) / float64(time.Millisecond),
		URL:    "/v1/runs/" + j.key,
	}
	if j.status == statusDone {
		res := j.res
		r.Results = &res
	}
	if j.err != nil {
		r.Error = j.err.Error()
	}
	return r
}

// ---------------------------------------------------------------------------
// Wire types

// SubmitRequest is the POST /v1/runs body: exactly one of Spec, Specs, or
// Matrix, optionally observed per Telemetry.
type SubmitRequest struct {
	Spec   *system.Spec  `json:"spec,omitempty"`
	Specs  []system.Spec `json:"specs,omitempty"`
	Matrix *Matrix       `json:"matrix,omitempty"`

	// Telemetry asks the daemon to sample each submitted run's counters
	// into a time series retrievable at GET /v1/runs/{key}/timeline. It is
	// an observation request, not part of the Spec: run keys (and thus
	// cache identity) are unchanged. A run whose result is cached but whose
	// timeline is not is re-executed once to produce it.
	Telemetry *TelemetryOptions `json:"telemetry,omitempty"`
}

// TelemetryOptions configures in-sim observation of submitted runs.
type TelemetryOptions struct {
	// Interval is the counter sampling period in simulated cycles; it must
	// be positive for the block to have any effect.
	Interval uint64 `json:"interval"`
}

// Matrix enumerates an axis-based sweep by name — the wire form of
// runner.Axes: benchmarks x systems x every swept knob x every swept
// workload parameter, with fixed Overrides applied to each point.
type Matrix struct {
	// Benchmarks holds workload spellings — a workloads registry name,
	// optionally with fixed parameters ("stream:stride=128"). Default:
	// every registered workload.
	Benchmarks []string `json:"benchmarks,omitempty"`
	Systems    []string `json:"systems,omitempty"` // cache|hybrid|ideal; default: all three
	Scale      string   `json:"scale"`

	// Cores is shorthand for overrides cores; an explicit override wins.
	Cores int `json:"cores,omitempty"`

	// Overrides fixes machine knobs for every enumerated run.
	Overrides *config.Overrides `json:"overrides,omitempty"`

	// Sweep adds one enumeration axis per entry, innermost last — each a
	// registry knob (config.Knobs) with the values it takes.
	Sweep []runner.KnobAxis `json:"sweep,omitempty"`

	// WSweep adds workload-parameter axes, nested inside the knob axes —
	// each a parameter declared by every swept workload's registry entry.
	WSweep []runner.ParamAxis `json:"wsweep,omitempty"`

	// Analyze asks a sweep to close its stream with a cross-run analysis
	// (axis attribution, knee detection) in the summary line. Pure
	// observation: run identity and per-run records are unchanged.
	Analyze bool `json:"analyze,omitempty"`
}

// Specs expands the enumeration, validating every name before anything is
// queued.
func (m Matrix) Specs() ([]system.Spec, error) {
	scale, err := workloads.ParseScale(m.Scale)
	if err != nil {
		return nil, err
	}
	axes := runner.Axes{
		Benchmarks: m.Benchmarks,
		Scale:      scale,
		Knobs:      m.Sweep,
		WParams:    m.WSweep,
	}
	if m.Overrides != nil {
		axes.Base = *m.Overrides
	}
	if axes.Base.Cores == 0 {
		axes.Base.Cores = m.Cores
	}
	if len(m.Systems) != 0 {
		axes.Systems = make([]config.MemorySystem, len(m.Systems))
		for i, name := range m.Systems {
			if axes.Systems[i], err = config.ParseMemorySystem(name); err != nil {
				return nil, err
			}
		}
	}
	specs, err := axes.Specs()
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// resolve returns the Specs a submission names.
func (r SubmitRequest) resolve() ([]system.Spec, error) {
	n := 0
	if r.Spec != nil {
		n++
	}
	if len(r.Specs) != 0 {
		n++
	}
	if r.Matrix != nil {
		n++
	}
	if n != 1 {
		return nil, errors.New(`body must set exactly one of "spec", "specs", or "matrix"`)
	}
	switch {
	case r.Spec != nil:
		return []system.Spec{*r.Spec}, nil
	case len(r.Specs) != 0:
		return r.Specs, nil
	default:
		return r.Matrix.Specs()
	}
}

// RunRecord is the wire form of one run's state. Results is present only
// once Status is "done".
type RunRecord struct {
	Key     string          `json:"key"`
	Spec    system.Spec     `json:"spec"`
	Status  string          `json:"status"`
	Cached  bool            `json:"cached,omitempty"`
	WallMS  float64         `json:"wall_ms,omitempty"`
	Results *system.Results `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
	URL     string          `json:"url,omitempty"`

	// Index/Total position a record inside a streamed sweep.
	Index int `json:"index,omitempty"`
	Total int `json:"total,omitempty"`
}

// SubmitResponse answers POST /v1/runs.
type SubmitResponse struct {
	Runs []RunRecord `json:"runs"`
}

// SweepSummary is the trailing line of a /v1/sweep stream. Analysis is
// present only when the sweep was requested with ?analyze=1.
type SweepSummary struct {
	Runs     int                   `json:"runs"`
	Failed   int                   `json:"failed"`
	WallMS   float64               `json:"wall_ms"`
	Cache    rescache.Stats        `json:"cache"`
	Analysis *analysis.SweepReport `json:"analysis,omitempty"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Cache      rescache.Stats `json:"cache"`
	QueueDepth int            `json:"queue_depth"`
	QueueCap   int            `json:"queue_cap"`
	Workers    int            `json:"workers"`
	Submitted  uint64         `json:"submitted"`
	Completed  uint64         `json:"completed"`
	Failed     uint64         `json:"failed"`
	Rejected   uint64         `json:"rejected"`
}

// ---------------------------------------------------------------------------
// HTTP surface

// Handler returns the versioned API mux, wrapped in the logging and
// request-metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{key}", s.handleGetRun)
	mux.HandleFunc("GET /v1/runs/{key}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/runs/{key}/analysis", s.handleAnalysis)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	return s.instrument(mux)
}

// statusWriter captures the response code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streamed sweeps keep flushing
// through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel maps a request path onto its route pattern, so the per-route
// counter has bounded cardinality no matter what keys clients poll.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/runs":
		return "/v1/runs"
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/timeline"):
		return "/v1/runs/{key}/timeline"
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/analysis"):
		return "/v1/runs/{key}/analysis"
	case strings.HasPrefix(p, "/v1/runs/"):
		return "/v1/runs/{key}"
	case p == "/v1/sweep", p == "/v1/plan", p == "/v1/cluster", p == "/v1/healthz", p == "/v1/stats", p == "/metrics":
		return p
	default:
		return "other"
	}
}

// instrument wraps the mux with structured request logging and the per-route
// request counter.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		route := routeLabel(r)
		s.httpReqs.With(route, strconv.Itoa(sw.code)).Inc()
		// Scrapes are noise, and an unlogged line is not built at all.
		if route != "/metrics" && route != "/v1/healthz" && s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.Info("request", "method", r.Method, "path", r.URL.Path,
				"code", sw.code, "dur_ms", time.Since(t0).Milliseconds())
		}
	})
}

// handleAnalysis runs the advisor rules over one completed run. Analysis is
// always derived on demand — findings are a view over results, resolved
// config, and (when present) the stored timeline, never part of run identity
// or cache state. Rules that need a counter snapshot are reported as skipped
// here: the daemon keeps results, not raw counters (use hybridsim -analyze
// for the full set).
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var spec system.Spec
	var res system.Results
	found := false
	s.mu.Lock()
	j, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		j.mu.Lock()
		if j.status == statusDone {
			spec, res, found = j.spec, j.res, true
		}
		status := j.status
		j.mu.Unlock()
		if !found {
			writeError(w, http.StatusConflict, fmt.Errorf(
				"run %q is %s; analysis needs a completed run", key, status))
			return
		}
	} else if e, ok := s.cache.EntryKey(key); ok {
		spec, res, found = e.Spec, e.Res, true
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", key))
		return
	}
	in := analysis.Input{Config: spec.Config(), Results: res}
	if ts, ok := s.timeline(key); ok {
		in.Series = ts
	}
	rep := analysis.Analyze(in)
	s.countFindings(rep.Findings)
	writeJSON(w, http.StatusOK, rep)
}

// countFindings feeds the per-rule findings counter.
func (s *Server) countFindings(fs []analysis.Finding) {
	for _, f := range fs {
		s.findingsTotal.With(f.Rule, string(f.Severity)).Inc()
	}
}

// handleTimeline serves the sampled counter time series of one
// telemetry-bearing run.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ts, ok := s.timeline(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf(
			"no timeline for run %q (submit it with a telemetry block)", key))
		return
	}
	writeJSON(w, http.StatusOK, ts)
}

// bufPool recycles the buffers responses are encoded into (writeJSON) and
// read back from (Client), so a cached answer costs no body buffer of its
// own on either end of the wire.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf bounds the buffers bufPool keeps: one large timeline or
// analysis body must not pin its memory for the daemon's lifetime.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// writeJSON answers with v as one line of compact JSON, the shape of every
// NDJSON stream line too. The body is encoded into a pooled buffer first,
// so it goes out in one write with its Content-Length, and a value that
// cannot be encoded answers 500 instead of an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(map[string]string{"error": err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// queryTimeout parses ?timeout=30s; zero means none.
func queryTimeout(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q", raw)
	}
	return d, nil
}

// decodeBody decodes a JSON request body into v under the API's rules: at
// most MaxRequestBody bytes, and no unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	timeout, err := queryTimeout(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specs, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wt := waiter{timeout: timeout, tel: req.Telemetry,
		forwarded: r.Header.Get(cluster.ForwardedHeader) != ""}
	jobs := make([]*job, 0, len(specs))
	for _, sp := range specs {
		j, err := s.acquire(sp, sp.Hash(), wt)
		if err != nil {
			writeShed(w, err)
			return
		}
		jobs = append(jobs, j)
	}
	s.log.Info("runs submitted", "specs", len(specs),
		"telemetry", req.Telemetry != nil && req.Telemetry.Interval > 0)

	wait, _ := strconv.ParseBool(q.Get("wait"))
	code := http.StatusAccepted
	if wait {
		// Block on the submitted work, bounded by the client's own
		// connection and the optional timeout. Expiry degrades to the
		// async answer (202 + poll URLs), it does not fail the jobs.
		waitCtx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			waitCtx, cancel = context.WithTimeout(waitCtx, timeout)
			defer cancel()
		}
		code = http.StatusOK
		for _, j := range jobs {
			select {
			case <-j.done:
			case <-waitCtx.Done():
				code = http.StatusAccepted
			case <-s.baseCtx.Done():
				// The server is closing under this handler; the async
				// answer is all that is safely left to give.
				code = http.StatusAccepted
			}
			if code == http.StatusAccepted {
				break
			}
		}
	}
	resp := SubmitResponse{Runs: make([]RunRecord, len(jobs))}
	for i, j := range jobs {
		resp.Runs[i] = j.record()
		if j.shed() {
			// Shed after its owner's forward fell back to this queue.
			writeShed(w, ErrQueueFull)
			return
		}
	}
	writeJSON(w, code, resp)
}

// writeShed answers a refused submission. The queue is a transient
// condition, so this is 429 with a retry hint rather than 503: clients back
// off and resubmit in Client.doRetry, and so do peers, whose forwards go
// through the same Client.
func writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, err)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, j.record())
		return
	}
	// Runs that arrived via a sweep (or a previous process, through the
	// disk tier) live only in the cache.
	if e, ok := s.cache.EntryKey(key); ok {
		writeJSON(w, http.StatusOK, endedJob(e.Spec, key, e.Res, nil).record())
		return
	}
	// Fleet read-proxy: the run may live on (or have been submitted to)
	// its ring owner. One hop only.
	if s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if owner, local := s.cluster.Owner(key); !local {
			if rec, err := s.peers[owner].Get(r.Context(), key); err == nil {
				writeJSON(w, http.StatusOK, rec)
				return
			}
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", key))
}

// handleSweep enumerates a matrix from query parameters, queues every run
// bound to the request context, and streams one JSON line per run in input
// order as results land, then a summary line. Disconnecting cancels all
// remaining work.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	timeout, err := queryTimeout(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m := Matrix{Scale: q.Get("scale")}
	if m.Scale == "" {
		m.Scale = "small"
	}
	if v := q.Get("benchmarks"); v != "" {
		m.Benchmarks = strings.Split(v, ",")
	}
	// ?workload=name:k=v,k2=v2 names one workload per occurrence (the
	// repeatable form parameter spellings need, since their commas would
	// split a ?benchmarks= list). Both parameters compose.
	m.Benchmarks = append(m.Benchmarks, q["workload"]...)
	if v := q.Get("systems"); v != "" {
		m.Systems = strings.Split(v, ",")
	}
	if v := q.Get("cores"); v != "" {
		if m.Cores, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad cores %q", v))
			return
		}
	}
	// ?set=knob=value fixes a machine knob for every run; ?sweep=knob=v1,v2
	// adds an enumeration axis. Both repeat.
	if sets := q["set"]; len(sets) > 0 {
		ov, err := config.ParseOverrides(sets)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		m.Overrides = &ov
	}
	if m.Sweep, err = runner.ParseKnobAxes(q["sweep"]); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?wsweep=param=v1,v2 adds a workload-parameter axis. Repeatable.
	if m.WSweep, err = runner.ParseParamAxes(q["wsweep"]); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?analyze=1 appends a cross-run analysis to the summary line.
	m.Analyze, _ = strconv.ParseBool(q.Get("analyze"))
	specs, err := m.Specs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	s.sweepsTotal.Inc()
	s.sweepRuns.Add(uint64(len(specs)))
	s.sweepActive.Inc()
	defer s.sweepActive.Dec()
	s.log.Info("sweep started", "runs", len(specs))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Acquire from a goroutine so a full queue backpressures the producer
	// while the handler keeps streaming completed lines. The jobs channel
	// carries input order, so the stream is deterministic no matter where
	// (or in what order) the runs complete — in fleet mode, specs owned by
	// a live peer go to it concurrently while local ones queue here, and
	// the merged output is identical to a single node's. When the client
	// goes (or the deadline passes), the stream leaves every job it waits
	// on, and the jobs nobody else wants fail at once.
	wt := waiter{ctx: ctx, forwarded: r.Header.Get(cluster.ForwardedHeader) != ""}
	jobs := make(chan *job, len(specs))
	go func() {
		defer close(jobs)
		for _, sp := range specs {
			j, _ := s.acquire(sp, sp.Hash(), wt)
			jobs <- j
		}
	}()

	t0 := time.Now()
	sum := SweepSummary{Runs: len(specs)}
	var doneSpecs []system.Spec
	var doneResults []system.Results
	i := 0
	for j := range jobs {
		<-j.done
		rec := j.record()
		rec.Index = i
		rec.Total = len(specs)
		if rec.Status != string(statusDone) {
			sum.Failed++
		} else if m.Analyze && rec.Results != nil {
			doneSpecs = append(doneSpecs, rec.Spec)
			doneResults = append(doneResults, *rec.Results)
		}
		if err := enc.Encode(rec); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		i++
	}
	sum.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
	sum.Cache = s.cache.Stats()
	if m.Analyze {
		rep := analysis.Sweep(doneSpecs, doneResults)
		s.countFindings(rep.Findings)
		sum.Analysis = &rep
	}
	enc.Encode(struct {
		Summary SweepSummary `json:"summary"`
	}{sum})
}

// handleCluster reports fleet membership and ring state; ?key= additionally
// answers which member owns a key (debugging aid: every node must agree).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("not running in cluster mode"))
		return
	}
	snap := s.cluster.Info()
	resp := map[string]any{
		"self":    snap.Self,
		"vnodes":  snap.VNodes,
		"members": snap.Members,
	}
	if key := r.URL.Query().Get("key"); key != "" {
		owner, local := s.cluster.Owner(key)
		resp["key"] = key
		resp["owner"] = owner
		resp["owner_is_self"] = local
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"version":     buildinfo.Version(),
		"queue_depth": len(s.queue),
		"queue_cap":   cap(s.queue),
		"workers":     s.workers,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Cache:      s.cache.Stats(),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Workers:    s.workers,
		Submitted:  s.submitted.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Rejected:   s.rejected.Load(),
	})
}
