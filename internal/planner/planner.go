// Package planner turns questions into probe sequences. Where /v1/sweep
// enumerates a grid, a plan searches it: a strategy (knee bisection, Pareto
// refinement, budgeted halving) consumes runner.Axes plus a typed
// objective/constraint block and decides which Spec to execute next from
// what it has already observed.
//
// Strategies are data, like knobs and analysis rules: a table in
// strategies.go that a drift test walks. Every probe is an ordinary Spec
// executed through whatever Prober the caller supplies — the in-process
// runner, or the daemon's cache → in-flight registry → cluster path — so probes
// land in the content-addressed cache and a repeated question replays from
// it. Probe sequences are deterministic: axis values are sorted and
// deduplicated up front, every tie among equally good points breaks toward
// the smaller Spec.Key, and probes run sequentially, so the same Question
// yields a byte-identical transcript.
package planner

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/system"
)

// ---------------------------------------------------------------------------
// Metric registry

// Metric names one scalar a plan can optimize or constrain, extracted from
// a run's Results. Maximize is the metric's natural direction: an Objective
// without an explicit goal inherits it, and slack-of-best constraints use
// it to orient analysis.WithinSlack.
type Metric struct {
	Name     string
	Desc     string
	Maximize bool
	Eval     func(system.Results) float64
}

var metricTable = []Metric{
	{"cycles", "execution time in cycles", false,
		func(r system.Results) float64 { return float64(r.Cycles) }},
	{"energy", "total energy (pJ)", false,
		func(r system.Results) float64 { return r.Energy.Total() }},
	{"edp", "energy-delay product (pJ·cycles)", false,
		func(r system.Results) float64 { return r.Energy.Total() * float64(r.Cycles) }},
	{"traffic", "total NoC packets", false,
		func(r system.Results) float64 { return float64(r.TotalPkts) }},
	{"hit_ratio", "coherence-filter hit ratio", true,
		func(r system.Results) float64 { return r.FilterHitRatio }},
}

// Metrics returns the metric registry in declaration order.
func Metrics() []Metric {
	out := make([]Metric, len(metricTable))
	copy(out, metricTable)
	return out
}

// MetricByName resolves a registry metric.
func MetricByName(name string) (Metric, bool) {
	for _, m := range metricTable {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// MetricNames returns the registered metric names, for error messages.
func MetricNames() []string {
	names := make([]string, len(metricTable))
	for i, m := range metricTable {
		names[i] = m.Name
	}
	return names
}

// evalMetrics extracts every registry metric from one run.
func evalMetrics(r system.Results) map[string]float64 {
	out := make(map[string]float64, len(metricTable))
	for _, m := range metricTable {
		out[m.Name] = m.Eval(r)
	}
	return out
}

// ---------------------------------------------------------------------------
// Questions

// Objective names a metric to optimize. Goal overrides the metric's natural
// direction ("min" or "max"; empty inherits it).
type Objective struct {
	Metric string `json:"metric"`
	Goal   string `json:"goal,omitempty"`
}

// maximize resolves the optimization direction; callers validate first.
func (o Objective) maximize() bool {
	if o.Goal != "" {
		return o.Goal == "max"
	}
	m, _ := MetricByName(o.Metric)
	return m.Maximize
}

// Constraint is a metric predicate a knee plan bisects against. Exactly one
// form is set: an absolute bound (Op ">=" or "<=" against Value), or
// SlackOfBest — "within this factor of the best observed value", the
// analyzer's knee rule (analysis.WithinSlack), e.g. 0.99 for hit_ratio.
type Constraint struct {
	Metric      string  `json:"metric"`
	Op          string  `json:"op,omitempty"`
	Value       float64 `json:"value,omitempty"`
	SlackOfBest float64 `json:"slack_of_best,omitempty"`
}

// Question is one planner invocation: a strategy, the axes it may move, and
// what "good" means. Exactly one benchmark and one system must be swept —
// a plan answers a question about one workload on one machine; compare
// machines by asking twice.
type Question struct {
	Strategy string      `json:"strategy"`
	Axes     runner.Axes `json:"-"`

	// Objective drives halving; Objectives (2–3) drive pareto; Constraint
	// drives knee.
	Objective  Objective   `json:"objective,omitempty"`
	Objectives []Objective `json:"objectives,omitempty"`
	Constraint *Constraint `json:"constraint,omitempty"`

	// Pick orients knee bisection: the "smallest" (default) or "largest"
	// axis value satisfying the constraint.
	Pick string `json:"pick,omitempty"`

	// Budget caps the number of executed probes (memoized repeats are
	// free). 0 means the strategy's default.
	Budget int `json:"budget,omitempty"`
}

// pick normalizes the bisection direction.
func (q Question) pick() string {
	if q.Pick == "" {
		return "smallest"
	}
	return q.Pick
}

// maxGrid caps the cross-product cardinality a plan will consider; a grid
// that large should be narrowed, not searched blind.
const maxGrid = 1 << 16

// Validate rejects malformed questions before any probe runs, so the
// service can answer 400 instead of streaming an error mid-plan.
func (q Question) Validate() error {
	st, ok := StrategyByName(q.Strategy)
	if !ok {
		return fmt.Errorf("planner: unknown strategy %q (want one of %v)", q.Strategy, StrategyNames())
	}
	if len(q.Axes.Benchmarks) != 1 {
		return fmt.Errorf("planner: a plan needs exactly one benchmark, got %d", len(q.Axes.Benchmarks))
	}
	if len(q.Axes.Systems) != 1 {
		return fmt.Errorf("planner: a plan needs exactly one system, got %d", len(q.Axes.Systems))
	}
	axes := len(q.Axes.Knobs) + len(q.Axes.WParams)
	if axes < 1 || axes > 3 {
		return fmt.Errorf("planner: a plan searches 1 to 3 axes, got %d", axes)
	}
	for _, ax := range q.Axes.Knobs {
		if len(dedupSorted(ax.Values)) < 2 {
			return fmt.Errorf("planner: axis %q needs at least 2 distinct values", ax.Name)
		}
	}
	for _, ax := range q.Axes.WParams {
		if len(dedupSorted(ax.Values)) < 2 {
			return fmt.Errorf("planner: axis %q needs at least 2 distinct values", ax.Name)
		}
	}
	switch q.Pick {
	case "", "smallest", "largest":
	default:
		return fmt.Errorf("planner: pick must be \"smallest\" or \"largest\", got %q", q.Pick)
	}
	if q.Budget < 0 {
		return fmt.Errorf("planner: budget must be non-negative, got %d", q.Budget)
	}
	checkObjective := func(o Objective) error {
		if _, ok := MetricByName(o.Metric); !ok {
			return fmt.Errorf("planner: unknown metric %q (want one of %v)", o.Metric, MetricNames())
		}
		switch o.Goal {
		case "", "min", "max":
		default:
			return fmt.Errorf("planner: objective goal must be \"min\" or \"max\", got %q", o.Goal)
		}
		return nil
	}
	switch st.Name {
	case "knee":
		if axes != 1 {
			return fmt.Errorf("planner: knee bisects exactly one axis, got %d", axes)
		}
		if q.Constraint == nil {
			return errors.New("planner: knee needs a constraint (e.g. hit_ratio within slack of best)")
		}
		c := *q.Constraint
		if _, ok := MetricByName(c.Metric); !ok {
			return fmt.Errorf("planner: unknown metric %q (want one of %v)", c.Metric, MetricNames())
		}
		abs := c.Op != "" || c.Value != 0
		if abs == (c.SlackOfBest != 0) {
			return errors.New("planner: constraint needs exactly one of op+value or slack_of_best")
		}
		if abs && c.Op != ">=" && c.Op != "<=" {
			return fmt.Errorf("planner: constraint op must be \">=\" or \"<=\", got %q", c.Op)
		}
		if c.SlackOfBest < 0 {
			return errors.New("planner: slack_of_best must be positive")
		}
	case "pareto":
		if len(q.Objectives) < 2 || len(q.Objectives) > 3 {
			return fmt.Errorf("planner: pareto needs 2 or 3 objectives, got %d", len(q.Objectives))
		}
		seen := map[string]bool{}
		for _, o := range q.Objectives {
			if err := checkObjective(o); err != nil {
				return err
			}
			if seen[o.Metric] {
				return fmt.Errorf("planner: duplicate pareto objective %q", o.Metric)
			}
			seen[o.Metric] = true
		}
		if q.Constraint != nil {
			return errors.New("planner: pareto takes objectives, not a constraint")
		}
	case "halving":
		if q.Objective.Metric == "" {
			return errors.New("planner: halving needs an objective metric")
		}
		if err := checkObjective(q.Objective); err != nil {
			return err
		}
	}
	return nil
}

// budget resolves the effective probe cap.
func (q Question) budget() int {
	if q.Budget > 0 {
		return q.Budget
	}
	st, _ := StrategyByName(q.Strategy)
	return st.DefaultBudget
}

// ---------------------------------------------------------------------------
// The search grid

// dim is one searchable axis: its registry name, kind, and sorted distinct
// values.
type dim struct {
	name string
	kind string // "knob" or "param"
	vals []int
}

// grid materializes the candidate Spec space once, up front, so strategies
// address points by index vector and every probe reuses Axes.Specs's
// validation and enumeration order (knobs outer in declared order, params
// innermost).
type grid struct {
	dims    []dim
	strides []int
	specs   []system.Spec
}

func dedupSorted(vals []int) []int {
	out := append([]int(nil), vals...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// newGrid sorts and deduplicates every axis (the determinism contract: a
// Question's probe sequence is independent of how the caller spelled the
// axis values), enumerates the Specs, and computes index strides.
func newGrid(q Question) (*grid, error) {
	ax := q.Axes
	ax.Knobs = append([]runner.KnobAxis(nil), ax.Knobs...)
	ax.WParams = append([]runner.ParamAxis(nil), ax.WParams...)
	g := &grid{}
	for i, k := range ax.Knobs {
		ax.Knobs[i].Values = dedupSorted(k.Values)
		g.dims = append(g.dims, dim{k.Name, "knob", ax.Knobs[i].Values})
	}
	for i, p := range ax.WParams {
		ax.WParams[i].Values = dedupSorted(p.Values)
		g.dims = append(g.dims, dim{p.Name, "param", ax.WParams[i].Values})
	}
	specs, err := ax.Specs()
	if err != nil {
		return nil, err
	}
	if len(specs) > maxGrid {
		return nil, fmt.Errorf("planner: grid has %d points, cap is %d — narrow an axis", len(specs), maxGrid)
	}
	g.specs = specs
	g.strides = make([]int, len(g.dims))
	stride := 1
	for i := len(g.dims) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= len(g.dims[i].vals)
	}
	if stride != len(specs) {
		return nil, fmt.Errorf("planner: internal: %d specs for a %d-point grid", len(specs), stride)
	}
	return g, nil
}

// flat maps an index vector to its Spec's position in enumeration order.
func (g *grid) flat(at []int) int {
	f := 0
	for i, v := range at {
		f += v * g.strides[i]
	}
	return f
}

// axes names the point for streaming: axis name → concrete value.
func (g *grid) axes(at []int) map[string]int {
	out := make(map[string]int, len(g.dims))
	for i, d := range g.dims {
		out[d.name] = d.vals[at[i]]
	}
	return out
}

// ---------------------------------------------------------------------------
// Probing

// Prober executes one Spec and reports whether the result was served from
// cache. The service wraps its cache → in-flight registry → cluster path in one;
// LocalProber runs in-process.
type Prober interface {
	Probe(ctx context.Context, sp system.Spec) (system.Results, bool, error)
}

// LocalProber executes probes in-process with no cache; every probe counts
// as a miss. cmd/experiments uses it for daemon-free planning.
type LocalProber struct{}

// Probe implements Prober.
func (LocalProber) Probe(ctx context.Context, sp system.Spec) (system.Results, bool, error) {
	r := runner.RunOne(ctx, sp)
	return r.Res, false, r.Err
}

// Probe is one streamed plan event: the n-th Spec the strategy executed.
// Memoized repeats within a plan are not re-emitted — Index counts distinct
// executions, so the transcript of a replayed Question is byte-identical.
type Probe struct {
	Index   int                `json:"index"`
	Key     string             `json:"key"`
	Cached  bool               `json:"cached"`
	Axes    map[string]int     `json:"axes"`
	Metrics map[string]float64 `json:"metrics"`
}

// Answer is one recommended point: its Spec key, axis values, and metrics.
type Answer struct {
	Key     string             `json:"key"`
	Axes    map[string]int     `json:"axes"`
	Metrics map[string]float64 `json:"metrics"`
}

// Verdict is a plan's final event. Converged=false means the budget ran out
// first and Answer/Frontier are best-effort. Grid is the full cross-product
// cardinality the strategy searched without enumerating.
type Verdict struct {
	Strategy  string   `json:"strategy"`
	Converged bool     `json:"converged"`
	Reason    string   `json:"reason"`
	Answer    *Answer  `json:"answer,omitempty"`
	Frontier  []Answer `json:"frontier,omitempty"`
	Probes    int      `json:"probes"`
	CacheHits int      `json:"cache_hits"`
	Grid      int      `json:"grid"`
}

// ErrBudget aborts a strategy when its probe budget is spent; Run converts
// it into a best-effort Verdict rather than an error.
var ErrBudget = errors.New("planner: probe budget exhausted")

// session is the strategies' execution context: the grid, the prober, the
// budget, and a memo so revisited points cost nothing and never re-emit.
type session struct {
	ctx    context.Context
	g      *grid
	p      Prober
	emit   func(Probe) error
	budget int

	probes, hits int
	memo         map[int]map[string]float64
}

// probe measures one grid point, memoized by flat index. The returned map
// holds every registry metric.
func (s *session) probe(at []int) (map[string]float64, error) {
	flat := s.g.flat(at)
	if vals, ok := s.memo[flat]; ok {
		return vals, nil
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.probes >= s.budget {
		return nil, ErrBudget
	}
	sp := s.g.specs[flat]
	res, cached, err := s.p.Probe(s.ctx, sp)
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", sp.Key(), err)
	}
	s.probes++
	if cached {
		s.hits++
	}
	vals := evalMetrics(res)
	s.memo[flat] = vals
	if s.emit != nil {
		if err := s.emit(Probe{
			Index: s.probes, Key: sp.Key(), Cached: cached,
			Axes: s.g.axes(at), Metrics: vals,
		}); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// answer packages an already-probed point.
func (s *session) answer(at []int) *Answer {
	return &Answer{
		Key:     s.g.specs[s.g.flat(at)].Key(),
		Axes:    s.g.axes(at),
		Metrics: s.memo[s.g.flat(at)],
	}
}

// key is the probed point's Spec key, the universal tie-breaker.
func (s *session) key(at []int) string {
	return s.g.specs[s.g.flat(at)].Key()
}

// Run answers one Question by probing through p, streaming each executed
// probe to emit (nil to discard) and returning the final Verdict. A spent
// budget yields (Verdict{Converged: false, ...}, nil); errors are probe
// failures, cancellation, or invalid questions.
func Run(ctx context.Context, q Question, p Prober, emit func(Probe) error) (Verdict, error) {
	if err := q.Validate(); err != nil {
		return Verdict{}, err
	}
	g, err := newGrid(q)
	if err != nil {
		return Verdict{}, err
	}
	st, _ := StrategyByName(q.Strategy)
	s := &session{
		ctx: ctx, g: g, p: p, emit: emit,
		budget: q.budget(), memo: map[int]map[string]float64{},
	}
	v, err := st.run(s, q)
	if errors.Is(err, ErrBudget) {
		// Already shaped by the strategy; defensive default otherwise.
		if v.Reason == "" {
			v.Reason = fmt.Sprintf("budget of %d probes exhausted", s.budget)
		}
		err = nil
	}
	if err != nil {
		return Verdict{}, err
	}
	v.Strategy = st.Name
	v.Probes = s.probes
	v.CacheHits = s.hits
	v.Grid = len(g.specs)
	return v, nil
}
