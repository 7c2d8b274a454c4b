package system

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/workloads"
)

// smallCfg returns a 4-core machine of the given flavor.
func smallCfg(sys config.MemorySystem) config.Config {
	cfg := config.SmallTest()
	cfg.System = sys
	if sys == config.CacheBased {
		cfg.L1DSize = 8 << 10
	}
	return cfg
}

// microBench is a minimal 2-kernel benchmark exercising every access class.
func microBench() *compiler.Benchmark {
	a := &compiler.Array{Name: "a", Base: 0x100000, Size: 32 << 10}
	b := &compiler.Array{Name: "b", Base: 0x200000, Size: 32 << 10}
	g := &compiler.Array{Name: "g", Base: 0x300000, Size: 8 << 10}
	return &compiler.Benchmark{
		Name:    "micro",
		Repeats: 1,
		Arrays:  []*compiler.Array{a, b, g},
		Kernels: []compiler.Kernel{{
			Name:       "k",
			Iters:      4096,
			ComputeOps: 4,
			Refs: []compiler.Ref{
				{Name: "a", Array: a, Pattern: compiler.Strided, IsWrite: true},
				{Name: "b", Array: b, Pattern: compiler.Strided},
				{Name: "g", Array: g, Pattern: compiler.Random, MayAliasSPM: true,
					HotFraction: 0.8, HotBytes: 2 << 10},
				{Name: "sp", Pattern: compiler.Stack, IsWrite: true},
			},
		}},
	}
}

func runMicro(t *testing.T, sys config.MemorySystem) Results {
	t.Helper()
	m, err := Build(smallCfg(sys), microBench(), 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCacheBasedRuns(t *testing.T) {
	r := runMicro(t, config.CacheBased)
	if r.Cycles == 0 || r.Retired == 0 {
		t.Fatalf("empty results: %+v", r)
	}
	if r.NoCPackets[noc.DMA] != 0 {
		t.Fatal("cache-based machine produced DMA traffic")
	}
	if r.NoCPackets[noc.CohProt] != 0 {
		t.Fatal("cache-based machine produced CohProt traffic")
	}
	if r.Energy.SPMs != 0 || r.Energy.CohProt != 0 {
		t.Fatal("cache-based machine charged SPM/CohProt energy")
	}
	if r.PhaseCycles[isa.PhaseControl] != 0 || r.PhaseCycles[isa.PhaseSync] != 0 {
		t.Fatal("cache-based run attributed control/sync cycles")
	}
}

func TestHybridRealRuns(t *testing.T) {
	r := runMicro(t, config.HybridReal)
	if r.NoCPackets[noc.DMA] == 0 {
		t.Fatal("hybrid run produced no DMA traffic")
	}
	if r.NoCPackets[noc.CohProt] == 0 {
		t.Fatal("hybrid run produced no protocol traffic")
	}
	if r.PhaseCycles[isa.PhaseControl] == 0 || r.PhaseCycles[isa.PhaseSync] == 0 {
		t.Fatal("hybrid run missing control/sync phases")
	}
	if r.Energy.SPMs <= 0 || r.Energy.CohProt <= 0 {
		t.Fatalf("hybrid energy breakdown: %+v", r.Energy)
	}
	if r.FilterHitRatio <= 0 || r.FilterHitRatio > 1 {
		t.Fatalf("filter hit ratio = %v", r.FilterHitRatio)
	}
	if r.DMALineTransfers == 0 {
		t.Fatal("no DMA line transfers recorded")
	}
}

func TestHybridIdealHasNoProtocolCost(t *testing.T) {
	r := runMicro(t, config.HybridIdeal)
	if r.Energy.CohProt != 0 {
		t.Fatalf("ideal coherence charged CohProt energy: %v", r.Energy.CohProt)
	}
	if r.NoCPackets[noc.CohProt] != 0 {
		t.Fatal("ideal coherence generated protocol traffic (guarded data is unmapped here)")
	}
}

func TestRealProtocolCostsMoreThanIdeal(t *testing.T) {
	ideal := runMicro(t, config.HybridIdeal)
	real := runMicro(t, config.HybridReal)
	// Cycle counts on a 4-core micro-run can invert by a percent or two
	// from timing interactions; the robust claims are traffic and energy.
	if float64(real.Cycles) < 0.97*float64(ideal.Cycles) {
		t.Fatalf("real protocol much faster than ideal: %d < %d", real.Cycles, ideal.Cycles)
	}
	if real.TotalPkts <= ideal.TotalPkts {
		t.Fatalf("real protocol sent no extra traffic: %d <= %d", real.TotalPkts, ideal.TotalPkts)
	}
	if real.Energy.Total() <= ideal.Energy.Total() {
		t.Fatal("real protocol consumed no extra energy")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runMicro(t, config.HybridReal)
	b := runMicro(t, config.HybridReal)
	if a.Cycles != b.Cycles || a.TotalPkts != b.TotalPkts || a.Retired != b.Retired {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestCoherenceInvariantsAfterRun(t *testing.T) {
	m, err := Build(smallCfg(config.HybridReal), microBench(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Hier.CheckInvariants(); err != nil {
		t.Fatalf("coherence invariants violated after full run: %v", err)
	}
}

// TestPutSRaceSeeds replays the two seeds on which a stale S-eviction
// notice once stripped a freshly granted owner (the race that
// coherence.TestUpgradeThenEvictKeepsOwner pins at unit scale): seed
// 1493272505 on every system, and seed 44, which tripped it only after the
// NoC began reserving routes at injection. A failing run ends with an L1
// line in M that its directory entry does not name as owner.
func TestPutSRaceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("four Small-scale 16-core IS runs")
	}
	cases := []struct {
		sys  config.MemorySystem
		seed uint64
	}{
		{config.HybridReal, 1493272505},
		{config.CacheBased, 1493272505},
		{config.HybridIdeal, 1493272505},
		{config.HybridReal, 44},
	}
	for _, c := range cases {
		spec := Spec{System: c.sys, Benchmark: "IS", Scale: workloads.Small,
			Overrides: config.Overrides{Cores: 16}, Seed: c.seed}
		t.Run(fmt.Sprintf("%s/seed=%d", c.sys, c.seed), func(t *testing.T) {
			t.Parallel()
			m, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := m.Hier.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEventBudgetEnforced(t *testing.T) {
	m, err := Build(smallCfg(config.HybridReal), microBench(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err == nil {
		t.Fatal("tiny event budget not enforced")
	}
}

func TestTinyWorkloadsRun(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, sys := range []config.MemorySystem{config.CacheBased, config.HybridReal} {
			r, err := Spec{System: sys, Benchmark: name, Scale: workloads.Tiny,
				Overrides: config.Overrides{Cores: 4}, MaxEvents: 500_000_000}.ExecuteContext(context.Background())
			if err != nil {
				t.Fatalf("%s on %v: %v", name, sys, err)
			}
			if r.Cycles == 0 {
				t.Fatalf("%s on %v: zero cycles", name, sys)
			}
		}
	}
}

func TestShrinkGeometry(t *testing.T) {
	cfg := Spec{System: config.HybridReal, Overrides: config.Overrides{Cores: 16}}.Config()
	if cfg.Cores != 16 || cfg.MeshWidth*cfg.MeshHeight != 16 {
		t.Fatalf("16 cores: %d cores, %dx%d", cfg.Cores, cfg.MeshWidth, cfg.MeshHeight)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSPFilterNeverExercised(t *testing.T) {
	r, err := Spec{System: config.HybridReal, Benchmark: "SP", Scale: workloads.Tiny,
		Overrides: config.Overrides{Cores: 4}, MaxEvents: 500_000_000}.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.FilterHitRatio != 1 {
		t.Fatalf("SP filter hit ratio = %v, want 1 (never exercised)", r.FilterHitRatio)
	}
}
