package analysis

// Registry-drift coverage: every rule has a synthetic input that fires it,
// IDs are unique, severities are valid, and the skip/inapplicable gating is
// pinned. The golden end-to-end transcript (analysis_golden_test.go at the
// repo root) covers real simulations; this file covers the registry itself,
// including rules real tiny-scale runs rarely trip (timeline-stall-epoch,
// dma-double-transfer).

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// trigger returns a synthetic Input designed to fire exactly the named
// failure mode on the default hybrid machine (64 cores, 8x8 mesh).
func trigger(t *testing.T, rule string) Input {
	t.Helper()
	in := Input{Config: config.ForSystem(config.HybridReal)}
	in.Results.Cycles = 1000
	in.Results.Retired = 100000
	switch rule {
	case "filter-pressure":
		in.Results.FilterHitRatio = 0.2
	case "fdir-broadcast-storm":
		in.Results.FilterHitRatio = 1 // keep filter-pressure quiet
		in.Results.FDirBroadcasts = 1000
	case "noc-saturation":
		in.Results.FilterHitRatio = 1
		// 8x8 mesh x 4 flits/link/cycle = 896 flit-hops/cycle of capacity.
		in.Results.NoCFlitHops = 500000
	case "mem-bandwidth-bound":
		in.Results.FilterHitRatio = 1
		in.Stats = map[string]uint64{
			"coherence.dram.reads":  6000,
			"coherence.dram.writes": 4000,
		}
	case "l2-miss-wall":
		in.Results.FilterHitRatio = 1
		in.Stats = map[string]uint64{
			"coherence.l2.accesses": 10000,
			"coherence.l2.misses":   9500,
		}
	case "l1d-miss-pressure":
		in.Results.FilterHitRatio = 1
		in.Results.L1DHits = 500
		in.Results.L1DMisses = 9500
	case "mshr-pressure":
		in.Results.FilterHitRatio = 1
		// Little's law: 40000 misses x 100 cycles / 1000 cycles / 64 cores
		// = 62.5 outstanding per core against 64 MSHRs.
		in.Results.L1DMisses = 40000
	case "prefetch-ineffective":
		in.Results.FilterHitRatio = 1
		in.Results.Prefetches = 5000
		in.Results.L1DHits = 500
		in.Results.L1DMisses = 9500
	case "sync-imbalance":
		in.Results.FilterHitRatio = 1
		in.Results.PhaseCycles[isa.PhaseSync] = 600
		in.Results.PhaseCycles[isa.PhaseWork] = 400
	case "flush-storm":
		in.Results.FilterHitRatio = 1
		in.Results.Flushes = 1000
	case "dma-double-transfer":
		in.Results.FilterHitRatio = 1
		in.Results.DMALineTransfers = 2000
		in.Stats = map[string]uint64{"coherence.dma.snoops": 500}
	case "energy-noc-heavy":
		in.Results.FilterHitRatio = 1
		in.Results.Energy = energy.Breakdown{CPUs: 50, NoC: 50}
	case "timeline-stall-epoch":
		in.Results.FilterHitRatio = 1
		// Two healthy epochs, then the run goes quiet until cycle 1000: the
		// elided tail counts as stalled (80% of the run).
		in.Series = &telemetry.TimeSeries{
			Interval: 100,
			Names:    []string{"core.retired"},
			Epochs: []telemetry.Epoch{
				{Cycle: 100, Deltas: []uint64{100}},
				{Cycle: 200, Deltas: []uint64{100}},
			},
			FinalCycle: 1000,
		}
	default:
		t.Fatalf("no synthetic trigger for rule %q — add one here", rule)
	}
	return in
}

// TestRegistryDrift pins the registry's shape: every rule has a unique
// non-empty ID and title, a trigger input in this file that fires it, a
// non-empty message, and a valid severity. A new rule without a trigger
// fails here by construction.
func TestRegistryDrift(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules {
		if r.ID == "" || r.Title == "" || r.Check == nil {
			t.Fatalf("rule %+v: ID, Title, and Check are mandatory", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate rule ID %q", r.ID)
		}
		seen[r.ID] = true

		rep := Analyze(trigger(t, r.ID))
		var fired *Finding
		for i := range rep.Findings {
			if rep.Findings[i].Rule == r.ID {
				fired = &rep.Findings[i]
			}
		}
		if fired == nil {
			t.Fatalf("trigger input for %q did not fire it; findings: %+v", r.ID, rep.Findings)
		}
		if fired.Message == "" {
			t.Fatalf("rule %q fired with an empty message", r.ID)
		}
		if len(fired.Evidence) == 0 {
			t.Fatalf("rule %q fired without evidence", r.ID)
		}
		switch fired.Severity {
		case SevInfo, SevWarn, SevCritical:
		default:
			t.Fatalf("rule %q fired with severity %q", r.ID, fired.Severity)
		}
		if s := fired.Suggestion; s != nil {
			if _, ok := config.KnobByName(s.Knob); !ok {
				t.Fatalf("rule %q suggests unknown knob %q", r.ID, s.Knob)
			}
		}
	}
	for _, id := range SweepRuleIDs {
		if seen[id] {
			t.Fatalf("sweep rule ID %q collides with a per-run rule", id)
		}
	}
}

// TestSkippedAndInapplicable pins the gating: missing optional inputs are
// reported in Skipped, while rules inapplicable to the machine are silent.
func TestSkippedAndInapplicable(t *testing.T) {
	hybrid := Analyze(Input{Config: config.ForSystem(config.HybridReal)})
	wantSkipped := []string{"mem-bandwidth-bound", "l2-miss-wall", "dma-double-transfer", "timeline-stall-epoch"}
	if fmt.Sprint(hybrid.Skipped) != fmt.Sprint(wantSkipped) {
		t.Fatalf("hybrid results-only skipped %v, want %v", hybrid.Skipped, wantSkipped)
	}

	// The cache baseline has no SPM machinery and no real protocol: those
	// rules are inapplicable (silent), not skipped.
	cache := Analyze(Input{Config: config.ForSystem(config.CacheBased)})
	wantSkipped = []string{"mem-bandwidth-bound", "l2-miss-wall", "timeline-stall-epoch"}
	if fmt.Sprint(cache.Skipped) != fmt.Sprint(wantSkipped) {
		t.Fatalf("cache results-only skipped %v, want %v", cache.Skipped, wantSkipped)
	}
	if len(cache.Findings) != 0 {
		t.Fatalf("zero-valued cache input fired %+v", cache.Findings)
	}
}

// TestRuleStatsExist builds a real hybrid machine and checks that every
// counter name a rule reads is a key of its counter snapshot. The trigger
// inputs above are synthetic maps, so they cannot notice a renamed counter.
func TestRuleStatsExist(t *testing.T) {
	m, err := system.Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.CounterSnapshot()
	for _, name := range statNames {
		if _, ok := snap[name]; !ok {
			t.Errorf("rules read %q, which Machine.CounterSnapshot does not report", name)
		}
	}
}

// sweepSpec builds one synthetic sweep point overriding a single knob.
func sweepSpec(t *testing.T, knob string, value int) system.Spec {
	t.Helper()
	ov, err := config.ParseOverrides([]string{"cores=8", fmt.Sprintf("%s=%d", knob, value)})
	if err != nil {
		t.Fatal(err)
	}
	return system.Spec{System: config.HybridReal, Benchmark: "IS",
		Scale: workloads.Tiny, Overrides: ov}
}

// sweepRes fabricates the measurements Sweep aggregates.
func sweepRes(cycles uint64, energyPJ, hit float64) system.Results {
	return system.Results{Cycles: cycles,
		Energy: energy.Breakdown{CPUs: energyPJ}, FilterHitRatio: hit}
}

// TestSweepFindings exercises all three sweep rules over fabricated runs and
// asserts SweepRuleIDs covers exactly what fired — the sweep half of the
// registry-drift guarantee.
func TestSweepFindings(t *testing.T) {
	fired := map[string]bool{}

	// A filter axis that dominates cycles and saturates its hit ratio at 16.
	specs := []system.Spec{
		sweepSpec(t, "filter_entries", 4),
		sweepSpec(t, "filter_entries", 16),
		sweepSpec(t, "filter_entries", 64),
	}
	results := []system.Results{
		sweepRes(2000, 100, 0.30),
		sweepRes(1100, 100, 0.980),
		sweepRes(1000, 100, 0.985),
	}
	rep := Sweep(specs, results)
	if rep.Runs != 3 || len(rep.Axes) != 1 {
		t.Fatalf("got %d runs, %d axes: %+v", rep.Runs, len(rep.Axes), rep.Axes)
	}
	ax := rep.Axes[0]
	if ax.Name != "filter_entries" || ax.Kind != "knob" || ax.BestValue != 64 {
		t.Fatalf("bad axis: %+v", ax)
	}
	ids := map[string]*Finding{}
	for i := range rep.Findings {
		ids[rep.Findings[i].Rule] = &rep.Findings[i]
		fired[rep.Findings[i].Rule] = true
	}
	if ids["sweep-dominant"] == nil {
		t.Fatalf("100%% cycle spread did not fire sweep-dominant: %+v", rep.Findings)
	}
	knee := ids["sweep-knee"]
	if knee == nil {
		t.Fatalf("saturating hit ratio did not fire sweep-knee: %+v", rep.Findings)
	}
	if knee.Evidence[0].Name != "knee_value" || knee.Evidence[0].Value != 16 {
		t.Fatalf("knee should land at 16: %+v", knee.Evidence)
	}

	// A bandwidth axis that measurably does nothing.
	specs = []system.Spec{
		sweepSpec(t, "link_bandwidth", 2),
		sweepSpec(t, "link_bandwidth", 8),
	}
	results = []system.Results{
		sweepRes(1000, 100, 0.5),
		sweepRes(1005, 100, 0.5),
	}
	rep = Sweep(specs, results)
	if len(rep.Findings) != 1 || rep.Findings[0].Rule != "sweep-flat" {
		t.Fatalf("flat axis should fire exactly sweep-flat: %+v", rep.Findings)
	}
	fired["sweep-flat"] = true

	for _, id := range SweepRuleIDs {
		if !fired[id] {
			t.Fatalf("sweep rule %q is registered but never exercised here", id)
		}
	}
	for id := range fired {
		found := false
		for _, want := range SweepRuleIDs {
			found = found || want == id
		}
		if !found {
			t.Fatalf("sweep emitted rule %q missing from SweepRuleIDs", id)
		}
	}
}

// TestSweepDegenerate pins the empty and mismatched-input behavior.
func TestSweepDegenerate(t *testing.T) {
	if rep := Sweep(nil, nil); rep.Runs != 0 || len(rep.Axes) != 0 || len(rep.Findings) != 0 {
		t.Fatalf("empty sweep: %+v", rep)
	}
	specs := []system.Spec{sweepSpec(t, "filter_entries", 4)}
	if rep := Sweep(specs, nil); len(rep.Axes) != 0 {
		t.Fatalf("mismatched lengths must not attribute axes: %+v", rep)
	}
}
