package planner

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
)

// fakeProber synthesizes Results from the materialized config, so tests
// control the metric surface exactly and run in microseconds.
type fakeProber struct {
	fn     func(cfg config.Config) system.Results
	keys   []string // every executed probe, in order
	cached bool
}

func (f *fakeProber) Probe(_ context.Context, sp system.Spec) (system.Results, bool, error) {
	f.keys = append(f.keys, sp.Key())
	return f.fn(sp.Config()), f.cached, nil
}

// saturatingHit models the paper's filter behaviour: the hit ratio climbs
// with filter_entries and saturates at 32.
func saturatingHit(cfg config.Config) system.Results {
	hit := float64(cfg.FilterEntries) / 32
	if hit > 1 {
		hit = 1
	}
	return system.Results{FilterHitRatio: hit, Cycles: 1000, TotalPkts: 100}
}

func seq(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

func filterAxes(vals []int) runner.Axes {
	return runner.Axes{
		Benchmarks: []string{"IS"},
		Systems:    []config.MemorySystem{config.HybridReal},
		Base:       config.Overrides{Cores: 4},
		Knobs:      []runner.KnobAxis{{Name: "filter_entries", Values: vals}},
	}
}

func TestKneeMatchesGridAnswer(t *testing.T) {
	vals := seq(4, 64, 4) // 16 values
	q := Question{
		Strategy:   "knee",
		Axes:       filterAxes(vals),
		Constraint: &Constraint{Metric: "hit_ratio", SlackOfBest: 0.99},
	}
	p := &fakeProber{fn: saturatingHit}
	v, err := Run(context.Background(), q, p, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged {
		t.Fatalf("not converged: %s", v.Reason)
	}

	// The exhaustive grid answer: smallest value whose hit ratio is within
	// slack of the best over the whole axis.
	best := 0.0
	for _, val := range vals {
		if h := saturatingHit(config.Config{FilterEntries: val}).FilterHitRatio; h > best {
			best = h
		}
	}
	want := 0
	for _, val := range vals {
		if saturatingHit(config.Config{FilterEntries: val}).FilterHitRatio >= 0.99*best {
			want = val
			break
		}
	}
	if got := v.Answer.Axes["filter_entries"]; got != want {
		t.Errorf("knee answer filter_entries=%d, grid says %d", got, want)
	}
	if v.Grid != len(vals) {
		t.Errorf("Grid = %d, want %d", v.Grid, len(vals))
	}
	// Acceptance: at most half the probes of the exhaustive sweep.
	if v.Probes > len(vals)/2 {
		t.Errorf("knee used %d probes, grid sweep uses %d; want <= %d", v.Probes, len(vals), len(vals)/2)
	}
	if v.Probes != len(p.keys) {
		t.Errorf("verdict says %d probes, prober executed %d", v.Probes, len(p.keys))
	}
}

func TestKneeDeterministicTranscript(t *testing.T) {
	// Unsorted, duplicated axis values: the grid normalizes them, so the
	// spelling must not change the transcript.
	q1 := Question{
		Strategy:   "knee",
		Axes:       filterAxes([]int{64, 4, 32, 8, 16, 48, 4, 24, 40, 56}),
		Constraint: &Constraint{Metric: "hit_ratio", SlackOfBest: 0.99},
	}
	q2 := q1
	q2.Axes = filterAxes([]int{4, 8, 16, 24, 32, 40, 48, 56, 64})

	run := func(q Question) ([]Probe, Verdict) {
		var tr []Probe
		v, err := Run(context.Background(), q, &fakeProber{fn: saturatingHit}, func(p Probe) error {
			tr = append(tr, p)
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return tr, v
	}
	tr1, v1 := run(q1)
	tr2, v2 := run(q2)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Errorf("transcripts differ:\n%v\n%v", tr1, tr2)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("verdicts differ:\n%+v\n%+v", v1, v2)
	}
	if len(tr1) == 0 || tr1[len(tr1)-1].Index != len(tr1) {
		t.Errorf("probe indices not sequential: %v", tr1)
	}
}

func TestKneePickLargest(t *testing.T) {
	// Cycles grow linearly with the axis; the largest value holding
	// cycles <= 1000 is 40.
	fn := func(cfg config.Config) system.Results {
		return system.Results{Cycles: uint64(25 * cfg.FilterEntries)}
	}
	q := Question{
		Strategy:   "knee",
		Axes:       filterAxes(seq(8, 64, 8)),
		Constraint: &Constraint{Metric: "cycles", Op: "<=", Value: 1000},
		Pick:       "largest",
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: fn}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged || v.Answer == nil {
		t.Fatalf("verdict: %+v", v)
	}
	if got := v.Answer.Axes["filter_entries"]; got != 40 {
		t.Errorf("largest filter_entries with cycles<=1000: got %d, want 40", got)
	}
}

func TestKneeInfeasible(t *testing.T) {
	q := Question{
		Strategy:   "knee",
		Axes:       filterAxes(seq(8, 64, 8)),
		Constraint: &Constraint{Metric: "hit_ratio", Op: ">=", Value: 2}, // impossible
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: saturatingHit}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged || v.Answer != nil {
		t.Fatalf("infeasible question should converge with no answer: %+v", v)
	}
	if v.Probes != 1 {
		t.Errorf("infeasibility should cost one probe, used %d", v.Probes)
	}
}

func TestKneeBudgetExhaustion(t *testing.T) {
	q := Question{
		Strategy:   "knee",
		Axes:       filterAxes(seq(4, 64, 4)),
		Constraint: &Constraint{Metric: "hit_ratio", SlackOfBest: 0.99},
		Budget:     2, // generous + frugal end, then the bisection starves
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: saturatingHit}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Converged {
		t.Fatalf("budget 2 cannot converge a 16-value bisection: %+v", v)
	}
	if v.Probes != 2 {
		t.Errorf("probes = %d, want exactly the budget 2", v.Probes)
	}
	// Best effort: the satisfying end is still a correct (non-minimal) answer.
	if v.Answer == nil || v.Answer.Axes["filter_entries"] != 64 {
		t.Errorf("best-effort answer should be the known-satisfying end: %+v", v.Answer)
	}
	if !strings.Contains(v.Reason, "budget") {
		t.Errorf("reason should mention the budget: %q", v.Reason)
	}
}

func TestHalvingBudgetExhaustion(t *testing.T) {
	fn := func(cfg config.Config) system.Results {
		return system.Results{Cycles: uint64(100000 / cfg.FilterEntries)}
	}
	q := Question{
		Strategy:  "halving",
		Axes:      filterAxes(seq(4, 64, 4)),
		Objective: Objective{Metric: "cycles"},
		Budget:    3,
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: fn}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Converged {
		t.Fatalf("budget 3 should exhaust: %+v", v)
	}
	if v.Probes != 3 {
		t.Errorf("probes = %d, want 3", v.Probes)
	}
	if v.Answer == nil {
		t.Fatal("best-effort verdict should carry the incumbent")
	}
}

func TestHalvingConvergesToMonotoneBest(t *testing.T) {
	fn := func(cfg config.Config) system.Results {
		return system.Results{Cycles: uint64(100000 / cfg.FilterEntries)}
	}
	vals := seq(4, 64, 4)
	q := Question{
		Strategy:  "halving",
		Axes:      filterAxes(vals),
		Objective: Objective{Metric: "cycles"},
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: fn}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged {
		t.Fatalf("not converged: %s", v.Reason)
	}
	if got := v.Answer.Axes["filter_entries"]; got != 64 {
		t.Errorf("min cycles is at filter_entries=64, got %d", got)
	}
	if v.Probes >= len(vals) {
		t.Errorf("halving used %d probes, no better than the %d-point grid", v.Probes, len(vals))
	}
}

func TestParetoExactOnSmallGrid(t *testing.T) {
	// 3x3 grid: strides start at 1, so the lattice is exhaustive and the
	// frontier must equal the brute-force one. Cycles fall with both axes,
	// traffic rises with filter entries only — so for any fixed
	// filter_entries, larger l1d_size dominates, and the frontier is the
	// l1d_size=max row.
	fn := func(cfg config.Config) system.Results {
		return system.Results{
			Cycles:    uint64(100000 - 100*cfg.FilterEntries - cfg.L1DSize/64),
			TotalPkts: uint64(10 * cfg.FilterEntries),
		}
	}
	ax := filterAxes([]int{8, 16, 32})
	ax.Knobs = append(ax.Knobs, runner.KnobAxis{Name: "l1d_size", Values: []int{16384, 32768, 65536}})
	q := Question{
		Strategy:   "pareto",
		Axes:       ax,
		Objectives: []Objective{{Metric: "cycles"}, {Metric: "traffic"}},
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: fn}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged {
		t.Fatalf("not converged: %s", v.Reason)
	}
	if len(v.Frontier) != 3 {
		t.Fatalf("frontier has %d points, want 3 (one per filter size, all at l1d_size max): %+v", len(v.Frontier), v.Frontier)
	}
	for _, a := range v.Frontier {
		if a.Axes["l1d_size"] != 65536 {
			t.Errorf("frontier point off the dominating l1d_size=65536 row: %+v", a)
		}
	}
	if v.Probes != 9 {
		t.Errorf("3x3 grid at stride 1 should probe all 9 points, got %d", v.Probes)
	}
}

func TestParetoPrunesDominatedRegion(t *testing.T) {
	// A larger axis where the frontier lives at high filter_entries: the
	// dominated low end should not be fully enumerated.
	fn := func(cfg config.Config) system.Results {
		hit := math.Min(1, float64(cfg.FilterEntries)/32)
		return system.Results{
			Cycles:    uint64(2000 - 1000*hit),
			TotalPkts: uint64(50 + cfg.FilterEntries/8),
		}
	}
	ax := filterAxes(seq(4, 64, 4))
	ax.Knobs = append(ax.Knobs, runner.KnobAxis{Name: "l1d_size", Values: []int{16384, 32768, 65536}})
	q := Question{
		Strategy:   "pareto",
		Axes:       ax,
		Objectives: []Objective{{Metric: "cycles"}, {Metric: "traffic"}},
	}
	v, err := Run(context.Background(), q, &fakeProber{fn: fn}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Converged {
		t.Fatalf("not converged: %s", v.Reason)
	}
	if grid := 16 * 3; v.Probes >= grid {
		t.Errorf("pareto probed %d of %d points: no pruning happened", v.Probes, grid)
	}
	if len(v.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
}

func TestValidate(t *testing.T) {
	good := Question{
		Strategy:   "knee",
		Axes:       filterAxes(seq(8, 64, 8)),
		Constraint: &Constraint{Metric: "hit_ratio", SlackOfBest: 0.99},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good question rejected: %v", err)
	}
	bad := []struct {
		name   string
		mut    func(q *Question)
		errSub string
	}{
		{"unknown strategy", func(q *Question) { q.Strategy = "oracle" }, "unknown strategy"},
		{"no benchmark", func(q *Question) { q.Axes.Benchmarks = nil }, "exactly one benchmark"},
		{"two systems", func(q *Question) {
			q.Axes.Systems = append(q.Axes.Systems, config.CacheBased)
		}, "exactly one system"},
		{"no axes", func(q *Question) { q.Axes.Knobs = nil }, "1 to 3 axes"},
		{"single-value axis", func(q *Question) { q.Axes.Knobs[0].Values = []int{8, 8} }, "2 distinct values"},
		{"no constraint", func(q *Question) { q.Constraint = nil }, "needs a constraint"},
		{"both forms", func(q *Question) {
			q.Constraint = &Constraint{Metric: "hit_ratio", Op: ">=", Value: 0.9, SlackOfBest: 0.99}
		}, "exactly one of"},
		{"bad metric", func(q *Question) { q.Constraint.Metric = "iq" }, "unknown metric"},
		{"bad pick", func(q *Question) { q.Pick = "median" }, "pick must be"},
		{"negative budget", func(q *Question) { q.Budget = -1 }, "non-negative"},
	}
	for _, c := range bad {
		q := good
		q.Axes.Knobs = append([]runner.KnobAxis(nil), good.Axes.Knobs...)
		cons := *good.Constraint
		q.Constraint = &cons
		c.mut(&q)
		err := q.Validate()
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.errSub)
		}
	}

	pareto := Question{
		Strategy:   "pareto",
		Axes:       filterAxes(seq(8, 64, 8)),
		Objectives: []Objective{{Metric: "cycles"}},
	}
	if err := pareto.Validate(); err == nil || !strings.Contains(err.Error(), "2 or 3 objectives") {
		t.Errorf("pareto with 1 objective: %v", err)
	}
	halving := Question{Strategy: "halving", Axes: filterAxes(seq(8, 64, 8))}
	if err := halving.Validate(); err == nil || !strings.Contains(err.Error(), "objective metric") {
		t.Errorf("halving without objective: %v", err)
	}
}

func TestRegistries(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range Strategies {
		if st.Name == "" || st.Desc == "" || st.run == nil || st.DefaultBudget <= 0 {
			t.Errorf("strategy %+v is incomplete", st.Name)
		}
		if seen[st.Name] {
			t.Errorf("duplicate strategy %q", st.Name)
		}
		seen[st.Name] = true
	}
	seenM := map[string]bool{}
	for _, m := range Metrics() {
		if m.Name == "" || m.Desc == "" || m.Eval == nil {
			t.Errorf("metric %+v is incomplete", m.Name)
		}
		if seenM[m.Name] {
			t.Errorf("duplicate metric %q", m.Name)
		}
		seenM[m.Name] = true
	}
}

func TestParseObjectives(t *testing.T) {
	objs, cons, err := ParseObjectives([]string{"cycles", "max:hit_ratio", "energy<=1e9", "min:traffic"})
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	wantObjs := []Objective{{Metric: "cycles"}, {Metric: "hit_ratio", Goal: "max"}, {Metric: "traffic", Goal: "min"}}
	if !reflect.DeepEqual(objs, wantObjs) {
		t.Errorf("objectives = %+v, want %+v", objs, wantObjs)
	}
	if cons == nil || cons.Metric != "energy" || cons.Op != "<=" || cons.Value != 1e9 {
		t.Errorf("constraint = %+v", cons)
	}

	_, cons, err = ParseObjectives([]string{"hit_ratio~0.99"})
	if err != nil || cons == nil || cons.SlackOfBest != 0.99 || cons.Metric != "hit_ratio" {
		t.Errorf("slack clause: cons=%+v err=%v", cons, err)
	}

	if _, _, err := ParseObjectives([]string{"hit_ratio~0.99", "cycles<=5"}); err == nil {
		t.Error("two constraints should be rejected")
	}
	if _, _, err := ParseObjectives([]string{"hit_ratio~fast"}); err == nil {
		t.Error("non-numeric slack should be rejected")
	}
}

// FuzzParseObjectives: newline-separated -objective clauses; accepted
// objectives and constraint re-render in the clause grammar and re-parse
// to the same values.
func FuzzParseObjectives(f *testing.F) {
	for _, s := range []string{"cycles\nmax:hit_ratio\nenergy<=1e9\nmin:traffic", "hit_ratio~0.99", "a>=b<=1", "a~1\nb>=2",
		"min:", "~NaN", " x >=-Inf", "hit_ratio~fast", "min:a~0x1p-2", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		objs, cons, err := ParseObjectives(strings.Split(s, "\n"))
		if err != nil {
			return
		}
		num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		var clauses []string
		for _, o := range objs {
			if o.Goal != "" {
				clauses = append(clauses, o.Goal+":"+o.Metric)
			} else {
				clauses = append(clauses, o.Metric)
			}
		}
		if cons != nil && cons.Op == "" {
			clauses = append(clauses, cons.Metric+"~"+num(cons.SlackOfBest))
		} else if cons != nil {
			clauses = append(clauses, cons.Metric+cons.Op+num(cons.Value))
		}
		objs2, cons2, err := ParseObjectives(clauses)
		// %v spells NaN as NaN, so a NaN bound compares equal to itself.
		if err != nil || !reflect.DeepEqual(objs2, objs) || fmt.Sprint(cons2) != fmt.Sprint(cons) {
			t.Fatalf("%q parses to %+v, %+v, whose rendering %q re-parses to %+v, %+v, %v", s, objs, cons, clauses, objs2, cons2, err)
		}
	})
}
