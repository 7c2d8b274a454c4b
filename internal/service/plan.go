package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// PlanRequest is the POST /v1/plan body: a planner Question by name. A plan
// asks about one workload on one machine, so Benchmark is required and
// System defaults to "hybrid"; Sweep/WSweep name the 1-3 searchable axes
// exactly as a sweep Matrix does.
type PlanRequest struct {
	Strategy  string             `json:"strategy"`
	Benchmark string             `json:"benchmark"`
	System    string             `json:"system,omitempty"`
	Scale     string             `json:"scale,omitempty"`
	Cores     int                `json:"cores,omitempty"`
	Overrides *config.Overrides  `json:"overrides,omitempty"`
	Sweep     []runner.KnobAxis  `json:"sweep,omitempty"`
	WSweep    []runner.ParamAxis `json:"wsweep,omitempty"`

	Objective  *planner.Objective  `json:"objective,omitempty"`
	Objectives []planner.Objective `json:"objectives,omitempty"`
	Constraint *planner.Constraint `json:"constraint,omitempty"`
	Pick       string              `json:"pick,omitempty"`
	Budget     int                 `json:"budget,omitempty"`
}

// question resolves the wire names into a validated planner.Question.
func (r PlanRequest) question() (planner.Question, error) {
	var q planner.Question
	if r.Benchmark == "" {
		return q, errors.New(`plan needs a "benchmark"`)
	}
	scale := r.Scale
	if scale == "" {
		scale = "small"
	}
	sc, err := workloads.ParseScale(scale)
	if err != nil {
		return q, err
	}
	sysName := r.System
	if sysName == "" {
		sysName = "hybrid"
	}
	sys, err := config.ParseMemorySystem(sysName)
	if err != nil {
		return q, err
	}
	q = planner.Question{
		Strategy: r.Strategy,
		Axes: runner.Axes{
			Benchmarks: []string{r.Benchmark},
			Systems:    []config.MemorySystem{sys},
			Scale:      sc,
			Knobs:      r.Sweep,
			WParams:    r.WSweep,
		},
		Objectives: r.Objectives,
		Constraint: r.Constraint,
		Pick:       r.Pick,
		Budget:     r.Budget,
	}
	if r.Objective != nil {
		q.Objective = *r.Objective
	}
	if r.Overrides != nil {
		q.Axes.Base = *r.Overrides
	}
	if q.Axes.Base.Cores == 0 {
		q.Axes.Base.Cores = r.Cores
	}
	return q, q.Validate()
}

// PlanEvent is one line of the /v1/plan ndjson stream: a probe while the
// strategy searches, then exactly one verdict (or error) line.
type PlanEvent struct {
	Probe   *planner.Probe   `json:"probe,omitempty"`
	Verdict *planner.Verdict `json:"verdict,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// serverProber adapts the service pipeline to planner.Prober: each probe
// is one acquire, so planner probes hit the content-addressed cache, join
// in-flight identical runs, and owner-route across the fleet exactly like
// sweep runs.
type serverProber struct {
	s         *Server
	forwarded bool
}

func (p serverProber) Probe(ctx context.Context, sp system.Spec) (system.Results, bool, error) {
	j, _ := p.s.acquire(sp, sp.Hash(), waiter{ctx: ctx, forwarded: p.forwarded})
	<-j.done
	rec := j.record()
	if rec.Status != string(statusDone) || rec.Results == nil {
		return system.Results{}, false, errors.New(rec.Error)
	}
	return *rec.Results, rec.Cached, nil
}

// handlePlan streams an adaptive plan: POST a PlanRequest, read ndjson
// probe lines as the strategy searches, and a final verdict line. The
// stream shares /v1/sweep's shape and cancellation semantics — closing the
// connection cancels every probe still queued.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	timeout, err := queryTimeout(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req PlanRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad plan body: %w", err))
		return
	}
	q, err := req.question()
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
	s.log.Info("plan started", "strategy", q.Strategy, "benchmark", req.Benchmark)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	prober := serverProber{s: s, forwarded: r.Header.Get(cluster.ForwardedHeader) != ""}
	emit := func(p planner.Probe) error {
		s.planProbes.Inc()
		if p.Cached {
			s.planHits.Inc()
		}
		if err := enc.Encode(PlanEvent{Probe: &p}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	v, err := planner.Run(ctx, q, prober, emit)
	if err != nil {
		outcome := "failed"
		if ctx.Err() != nil {
			outcome = "canceled"
		}
		s.plansTotal.With(q.Strategy, outcome).Inc()
		s.log.Warn("plan failed", "strategy", q.Strategy, "err", err)
		enc.Encode(PlanEvent{Error: err.Error()})
		return
	}
	outcome := "converged"
	if !v.Converged {
		outcome = "exhausted"
	}
	s.plansTotal.With(q.Strategy, outcome).Inc()
	s.log.Info("plan finished", "strategy", q.Strategy, "outcome", outcome,
		"probes", v.Probes, "cache_hits", v.CacheHits, "grid", v.Grid)
	enc.Encode(PlanEvent{Verdict: &v})
}
