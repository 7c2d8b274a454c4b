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
//	GET  /v1/cache/{key}     one cache entry by key (fleet peer fills)
//	PUT  /v1/cache/{key}     adopt a peer-computed entry (owner back-fill)
//	GET  /v1/cluster         fleet membership, ring state, ?key= ownership
//	GET  /v1/healthz         liveness plus queue depth and build version
//	GET  /v1/stats           cache hit rate, queue, and run counters
//	GET  /metrics            Prometheus text exposition (internal/metrics)
//
// Submissions flow through a bounded job queue drained by a fixed pool of
// worker goroutines, each of which executes via rescache.GetOrRun — so a
// Spec the daemon has seen before costs a map lookup, and N concurrent
// requests for the same Spec cost one simulation. Sweep jobs are bound to
// their request's context: a client disconnect cancels queued and in-flight
// work (system.Machine.RunContext polls the context mid-run).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
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
	// runs are owner-routed by Spec.Hash over the consistent-hash ring,
	// non-owned specs try a peer cache fill before computing, locally
	// computed non-owned results are offered back to their owners, and
	// sweeps fan out across the fleet. nil means single-node operation.
	Cluster *cluster.Cluster
}

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
	cluster *cluster.Cluster // nil outside fleet mode
	queue   chan *job

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	runs map[string]*job // async-submitted runs by Spec.Hash

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
	r.CounterFunc("hybridsimd_cache_hits_total", "Cache hits, all tiers plus singleflight followers.",
		func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("hybridsimd_cache_memory_hits_total", "Memory-tier cache hits.",
		func() uint64 { return s.cache.Stats().MemHits })
	r.CounterFunc("hybridsimd_cache_disk_hits_total", "Disk-tier cache hits.",
		func() uint64 { return s.cache.Stats().DiskHits })
	r.CounterFunc("hybridsimd_cache_singleflight_hits_total", "Callers that joined an in-flight identical run.",
		func() uint64 { return s.cache.Stats().Dedup })
	r.CounterFunc("hybridsimd_cache_misses_total", "Requests that executed a simulation.",
		func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("hybridsimd_cache_evictions_total", "Memory-tier LRU evictions.",
		func() uint64 { return s.cache.Stats().Evictions })
	r.CounterFunc("hybridsimd_cache_disk_errors_total",
		"Corrupt or unreadable disk-tier entries skipped at lookup.",
		func() uint64 { return s.cache.Stats().DiskErrors })
	r.CounterFunc("hybridsimd_cache_peer_fills_total",
		"Results adopted from fleet peers (cache fills and owner back-fills).",
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
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		workers:     workers,
		cache:       cache,
		cluster:     opt.Cluster,
		queue:       make(chan *job, depth),
		baseCtx:     ctx,
		cancel:      cancel,
		runs:        make(map[string]*job),
		log:         log,
		start:       time.Now(),
		timelines:   make(map[string]*telemetry.TimeSeries),
		timelineCap: tcap,
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
			j.finish(system.Results{}, false, 0, s.baseCtx.Err())
			s.failed.Add(1)
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
			s.execute(j)
		}
	}
}

// execute runs one job through the cache and publishes its outcome. In
// fleet mode a spec this node does not own first tries a peer cache fill
// (the owner computed or collected it already), and a result this node had
// to compute anyway — owner down, fill missed — is offered back to the
// owner so the fleet converges on one copy per shard.
func (s *Server) execute(j *job) {
	// A job whose submitter vanished (sweep disconnect, deadline) is
	// dropped here instead of burning a worker on a dead request.
	if err := j.ctx.Err(); err != nil {
		j.finish(system.Results{}, false, 0, err)
		s.failed.Add(1)
		return
	}
	if j.tel != nil && j.tel.Interval > 0 {
		s.executeRecorded(j)
		return
	}
	t0 := time.Now()
	remoteOwned := false
	if s.cluster != nil && !s.cache.Contains(j.key) {
		if _, local := s.cluster.Owner(j.key); !local {
			remoteOwned = true
			if e, ok := s.peerFill(j.ctx, j.key); ok {
				s.cache.FillPeer(e.Spec, e.Res)
				j.finish(e.Res, true, 0, nil)
				s.finishMetrics(j, "filled", time.Since(t0), nil)
				return
			}
		}
	}
	var wall time.Duration
	computed := false
	res, hit, err := s.cache.GetOrRun(j.ctx, j.spec, func(ctx context.Context) (system.Results, error) {
		computed = true
		r := runner.RunOne(ctx, j.spec)
		wall = r.Wall
		return r.Res, r.Err
	})
	if err == nil && computed && remoteOwned {
		s.offerToOwner(j.spec, res)
	}
	j.finish(res, hit, wall, err)
	s.finishMetrics(j, outcomeOf(hit, err), time.Since(t0), err)
}

// peerFill asks the fleet for key's cached entry and verifies the answer
// really is the entry it claims to be (a confused peer must not poison the
// local cache).
func (s *Server) peerFill(ctx context.Context, key string) (rescache.Entry, bool) {
	body, ok := s.cluster.Fill(ctx, key)
	if !ok {
		return rescache.Entry{}, false
	}
	var e rescache.Entry
	if err := json.Unmarshal(body, &e); err != nil || e.Spec.Hash() != key {
		s.log.Warn("cluster: discarding invalid peer fill", "key", key)
		return rescache.Entry{}, false
	}
	return e, true
}

// offerToOwner pushes a locally computed result for a non-owned key back to
// its owner, asynchronously and best-effort.
func (s *Server) offerToOwner(spec system.Spec, res system.Results) {
	body, err := json.Marshal(rescache.Entry{Spec: spec, Res: res})
	if err != nil {
		return
	}
	s.cluster.Offer(spec.Hash(), body)
}

// executeRecorded runs a telemetry-bearing job directly (outside GetOrRun, so
// a Recorder can be attached to the machine), then back-fills the cache and
// stores the sampled timeline under the run key.
func (s *Server) executeRecorded(j *job) {
	rec := telemetry.NewRecorder(j.tel.Interval, 0)
	t0 := time.Now()
	res, err := j.spec.ExecuteRecorded(j.ctx, rec)
	wall := time.Since(t0)
	if err == nil {
		s.cache.Put(j.spec, res)
		s.storeTimeline(j.key, rec.Series())
	}
	j.finish(res, false, wall, err)
	s.finishMetrics(j, outcomeOf(false, err), wall, err)
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

// finishMetrics publishes one finished job's counters, latency, and log line.
func (s *Server) finishMetrics(j *job, outcome string, wall time.Duration, err error) {
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	s.runSeconds.With(outcome).Observe(wall.Seconds())
	if err != nil {
		s.log.Info("run finished", "key", j.key, "spec", j.spec.Key(),
			"outcome", outcome, "wall_ms", wall.Milliseconds(), "err", err)
	} else {
		s.log.Info("run finished", "key", j.key, "spec", j.spec.Key(),
			"outcome", outcome, "wall_ms", wall.Milliseconds())
	}
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

// job is one queued run. done closes exactly once, when the terminal state
// (done/failed) is published.
type job struct {
	spec   system.Spec
	key    string
	tel    *TelemetryOptions // non-nil: observe the run (see executeRecorded)
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	status jobStatus
	res    system.Results
	cached bool
	wall   time.Duration
	err    error
}

func newJob(ctx context.Context, cancel context.CancelFunc, spec system.Spec, key string) *job {
	return &job{
		spec:   spec,
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: statusPending,
	}
}

// doneJob synthesizes an already-completed job for a cache hit at submit
// time — no queue round-trip, no worker. key is spec.Hash().
func doneJob(spec system.Spec, key string, res system.Results) *job {
	j := &job{
		spec:   spec,
		key:    key,
		done:   make(chan struct{}),
		status: statusDone,
		res:    res,
		cached: true,
	}
	close(j.done)
	return j
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
	Cores      int      `json:"cores,omitempty"`

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
		Cores:      m.Cores,
		Knobs:      m.Sweep,
		WParams:    m.WSweep,
	}
	if m.Overrides != nil {
		axes.Base = *m.Overrides
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
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
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
	case strings.HasPrefix(p, "/v1/cache/"):
		return "/v1/cache/{key}"
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
		if route != "/metrics" && route != "/v1/healthz" { // scrape noise
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// queryTimeout parses ?timeout=30s; zero means none.
func queryTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q", raw)
	}
	return d, nil
}

// submit registers (or joins) the async job for spec. Completed results
// short-circuit to a synthetic done job; a pending job for the same hash is
// shared, so re-POSTing a slow Spec does not duplicate work or queue slots.
// A telemetry-bearing submission only takes the cache short-circuit when the
// timeline already exists too — otherwise the run is executed (once) to
// produce it.
func (s *Server) submit(spec system.Spec, key string, timeout time.Duration, tel *TelemetryOptions) (*job, error) {
	// A closing server has no workers left; accepting the job would strand
	// a ?wait=true caller (or a fleet peer's forwarded request) forever.
	if err := s.baseCtx.Err(); err != nil {
		s.rejected.Add(1)
		return nil, fmt.Errorf("service: shutting down: %w", err)
	}
	wantTimeline := tel != nil && tel.Interval > 0
	if res, ok := s.cache.GetKey(key); ok {
		if !wantTimeline {
			return doneJob(spec, key, res), nil
		}
		if _, ok := s.timeline(key); ok {
			return doneJob(spec, key, res), nil
		}
	}
	s.mu.Lock()
	if j, ok := s.runs[key]; ok {
		j.mu.Lock()
		pending := j.status == statusPending || j.status == statusRunning
		j.mu.Unlock()
		if pending {
			s.mu.Unlock()
			return j, nil
		}
	}
	s.gcRunsLocked()
	// Async jobs outlive their submitting request, so they hang off the
	// server's context; the optional timeout is the only per-job bound.
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j := newJob(ctx, cancel, spec, key)
	if wantTimeline {
		j.tel = tel
	}
	s.runs[j.key] = j
	s.mu.Unlock()

	select {
	case s.queue <- j:
		s.submitted.Add(1)
		return j, nil
	default:
		s.mu.Lock()
		delete(s.runs, j.key)
		s.mu.Unlock()
		cancel()
		s.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// runsGCThreshold bounds the async-run registry: past it, terminal jobs are
// swept out (their Results stay reachable through the cache).
const runsGCThreshold = 4096

// gcRunsLocked evicts finished jobs once the registry outgrows the
// threshold. Caller holds s.mu.
func (s *Server) gcRunsLocked() {
	if len(s.runs) <= runsGCThreshold {
		return
	}
	for k, j := range s.runs {
		j.mu.Lock()
		terminal := j.status == statusDone || j.status == statusFailed
		j.mu.Unlock()
		if terminal {
			delete(s.runs, k)
		}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	timeout, err := queryTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specs, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Each Spec is hashed once here; forwarding, the cache probe and the
	// job all reuse its key.
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = sp.Hash()
	}
	if s.maybeForwardSubmit(w, r, keys, req) {
		return
	}
	jobs := make([]*job, 0, len(specs))
	for i, sp := range specs {
		j, err := s.submit(sp, keys[i], timeout, req.Telemetry)
		if err != nil {
			// Load shed: the queue is a transient condition, so answer 429
			// with a retry hint rather than 503 (clients and peers back off
			// and resubmit; see cluster.Forward and Client retries).
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		jobs = append(jobs, j)
	}
	s.log.Info("runs submitted", "specs", len(specs),
		"telemetry", req.Telemetry != nil && req.Telemetry.Interval > 0)

	wait, _ := strconv.ParseBool(r.URL.Query().Get("wait"))
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
	}
	writeJSON(w, code, resp)
}

// maybeForwardSubmit owner-routes a single-Spec submission to the ring
// member that owns its key, so the fleet's singleflight has one home per
// Spec. Only plain single runs forward: multi-spec and matrix bodies stay
// local (the per-job paths route individually), telemetry is a local
// observation request, and a request already carrying ForwardedHeader is
// terminal here — one hop, never a loop. The owner's reply (including a
// 429 shed) is relayed verbatim; a transport failure degrades to local
// compute by returning false.
func (s *Server) maybeForwardSubmit(w http.ResponseWriter, r *http.Request, keys []string, req SubmitRequest) bool {
	if s.cluster == nil || len(keys) != 1 || req.Spec == nil {
		return false
	}
	if req.Telemetry != nil && req.Telemetry.Interval > 0 {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	key := keys[0]
	if s.cache.Contains(key) {
		return false // local answer is free; no point shipping the request
	}
	owner, local := s.cluster.Owner(key)
	if local {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	status, resp, err := s.cluster.Forward(r.Context(), owner, http.MethodPost, path, body)
	if err != nil {
		s.log.Warn("cluster: forward failed, running locally", "peer", owner, "key", key, "err", err)
		return false
	}
	if status == http.StatusOK {
		// A waited run came back complete; adopt it so the next local
		// request (and GET /v1/runs/{key}) is a cache hit here too.
		s.adoptForwarded(resp, key)
	}
	if ra := "1"; status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(resp)
	return true
}

// adoptForwarded back-fills the local cache from a forwarded ?wait=true
// submission's completed response.
func (s *Server) adoptForwarded(resp []byte, key string) {
	var sr SubmitResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		return
	}
	for _, rec := range sr.Runs {
		if rec.Status == string(statusDone) && rec.Results != nil && rec.Spec.Hash() == key {
			s.cache.FillPeer(rec.Spec, *rec.Results)
		}
	}
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
		writeJSON(w, http.StatusOK, doneJob(e.Spec, key, e.Res).record())
		return
	}
	// Fleet read-proxy: the run may live on (or have been submitted to)
	// its ring owner. One hop only.
	if s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if owner, local := s.cluster.Owner(key); !local {
			status, resp, err := s.cluster.Forward(r.Context(), owner, http.MethodGet, r.URL.Path, nil)
			if err == nil && status == http.StatusOK {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				w.Write(resp)
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
	timeout, err := queryTimeout(r)
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

	// Enqueue from a goroutine so a full queue backpressures the producer
	// while the handler keeps streaming completed lines. The jobs channel
	// carries input order, so the stream is deterministic no matter where
	// (or in what order) the runs complete — in fleet mode, specs owned by
	// a live peer fan out to it concurrently while local ones queue here,
	// and the merged output is identical to a single node's.
	fanout := r.Header.Get(cluster.ForwardedHeader) == ""
	jobs := make(chan *job, len(specs))
	go func() {
		defer close(jobs)
		for _, sp := range specs {
			jobs <- s.startJob(ctx, sp, fanout)
		}
	}()

	t0 := time.Now()
	sum := SweepSummary{Runs: len(specs)}
	var doneSpecs []system.Spec
	var doneResults []system.Results
	i := 0
	for j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			// The client is gone (or the deadline passed): every queued
			// job shares ctx and will be dropped by the workers; stop
			// streaming.
			<-j.done
		}
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

// enqueueLocal puts a sweep job on the local queue, backpressuring the
// producer; a cancelled context fails the job instead of blocking forever.
func (s *Server) enqueueLocal(ctx context.Context, j *job) {
	select {
	case s.queue <- j:
		s.submitted.Add(1)
	case <-ctx.Done():
		j.finish(system.Results{}, false, 0, ctx.Err())
	}
}

// runRemote executes one sweep job on its ring owner: a forwarded
// ?wait=true submission, adopted into the local cache on success so
// repeats are free here too. Any failure — owner down, shed after
// retries, timeout, malformed reply — degrades to local compute, so a
// sweep always completes with whatever nodes remain.
func (s *Server) runRemote(ctx context.Context, owner string, j *job) {
	t0 := time.Now()
	body, err := json.Marshal(SubmitRequest{Spec: &j.spec})
	if err != nil {
		s.enqueueLocal(ctx, j)
		return
	}
	status, resp, err := s.cluster.Forward(ctx, owner, http.MethodPost, "/v1/runs?wait=true", body)
	if err == nil && status == http.StatusOK {
		var sr SubmitResponse
		if jerr := json.Unmarshal(resp, &sr); jerr == nil && len(sr.Runs) == 1 {
			rec := sr.Runs[0]
			if rec.Status == string(statusDone) && rec.Results != nil && rec.Spec.Hash() == j.key {
				s.cache.FillPeer(rec.Spec, *rec.Results)
				j.finish(*rec.Results, true, 0, nil)
				s.finishMetrics(j, "forwarded", time.Since(t0), nil)
				return
			}
		}
	}
	if err != nil {
		s.log.Warn("cluster: remote run failed, degrading to local",
			"peer", owner, "key", j.key, "err", err)
	} else {
		s.log.Warn("cluster: remote run unusable, degrading to local",
			"peer", owner, "key", j.key, "status", status)
	}
	s.enqueueLocal(ctx, j)
}

// handleCacheGet serves one cache entry by key to fleet peers — the wire
// half of cluster.Fill. 404 means a plain miss; the caller computes.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, ok := s.cache.EntryKey(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cache entry %q", key))
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// handleCachePut accepts an owner back-fill from a peer that computed one
// of this node's keys (the wire half of cluster.Offer). The entry must
// hash to the key it claims — a mismatch is a client bug, never stored.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	var e rescache.Entry
	if err := dec.Decode(&e); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if e.Spec.Hash() != key {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"entry hashes to %q, not %q", e.Spec.Hash(), key))
		return
	}
	if !s.cache.Contains(key) {
		s.cache.FillPeer(e.Spec, e.Res)
	}
	w.WriteHeader(http.StatusNoContent)
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
