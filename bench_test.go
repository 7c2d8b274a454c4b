package repro

// One testing.B benchmark per table and figure of the paper's evaluation.
// Benchmarks run the tiny workload scale on an 8-core machine so the whole
// suite finishes in minutes; cmd/experiments regenerates the full 64-core
// exhibits. Custom metrics carry the quantities each figure reports, so
// `go test -bench=.` output doubles as a miniature results table.

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/system"
	"repro/internal/workloads"
)

const (
	benchCores = 8
	benchScale = workloads.Tiny
)

// run executes one benchmark on one system flavor, failing b on error.
func run(b *testing.B, name string, sys config.MemorySystem) system.Results {
	b.Helper()
	spec := system.Spec{System: sys, Benchmark: name, Scale: benchScale, Overrides: config.Overrides{Cores: benchCores}}
	r, err := spec.ExecuteContext(context.Background())
	if err != nil {
		b.Fatalf("%s: %v", spec.Key(), err)
	}
	return r
}

// BenchmarkTable1Config regenerates Table 1: it validates and reports the
// machine description used everywhere else.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []config.MemorySystem{config.CacheBased, config.HybridIdeal, config.HybridReal} {
			cfg := config.ForSystem(sys)
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := config.Default()
	b.ReportMetric(float64(cfg.Cores), "cores")
	b.ReportMetric(float64(cfg.SPMSize)/1024, "spmKB")
	b.ReportMetric(float64(cfg.FilterEntries), "filterEntries")
}

// BenchmarkTable2Characterization regenerates Table 2: the per-benchmark
// reference counts and footprints.
func BenchmarkTable2Characterization(b *testing.B) {
	var spmRefs, guardedRefs, kernels int
	for i := 0; i < b.N; i++ {
		spmRefs, guardedRefs, kernels = 0, 0, 0
		for _, bench := range workloads.All(benchScale) {
			c := compiler.Characterize(bench)
			spmRefs += c.SPMRefs
			guardedRefs += c.GuardedRefs
			kernels += c.Kernels
		}
	}
	b.ReportMetric(float64(spmRefs), "spmRefs")
	b.ReportMetric(float64(guardedRefs), "guardedRefs")
	b.ReportMetric(float64(kernels), "kernels")
}

// BenchmarkFig7ProtocolOverheads regenerates Figure 7: the real protocol's
// execution-time, energy and traffic overheads over ideal coherence,
// averaged over the benchmarks that exercise guarded accesses most (CG, IS).
func BenchmarkFig7ProtocolOverheads(b *testing.B) {
	var tOvh, eOvh, pOvh float64
	for i := 0; i < b.N; i++ {
		tOvh, eOvh, pOvh = 0, 0, 0
		names := []string{"CG", "IS"}
		for _, n := range names {
			real := run(b, n, config.HybridReal)
			ideal := run(b, n, config.HybridIdeal)
			tOvh += float64(real.Cycles) / float64(ideal.Cycles)
			eOvh += real.Energy.Total() / ideal.Energy.Total()
			pOvh += float64(real.TotalPkts) / float64(ideal.TotalPkts)
		}
		tOvh /= float64(len(names))
		eOvh /= float64(len(names))
		pOvh /= float64(len(names))
	}
	b.ReportMetric(tOvh, "timeOvh(x)")
	b.ReportMetric(eOvh, "energyOvh(x)")
	b.ReportMetric(pOvh, "trafficOvh(x)")
}

// BenchmarkFig8FilterHitRatio regenerates Figure 8 for the two extremes:
// IS (lowest locality) and SP (no guarded accesses at all).
func BenchmarkFig8FilterHitRatio(b *testing.B) {
	var is, sp float64
	for i := 0; i < b.N; i++ {
		is = run(b, "IS", config.HybridReal).FilterHitRatio
		sp = run(b, "SP", config.HybridReal).FilterHitRatio
	}
	b.ReportMetric(is*100, "IS(%)")
	b.ReportMetric(sp*100, "SP(%)")
}

// BenchmarkFig9Performance regenerates Figure 9: cache vs hybrid execution
// time with the control/sync/work split.
func BenchmarkFig9Performance(b *testing.B) {
	var speedup, workRatio, filterHit, energy float64
	for i := 0; i < b.N; i++ {
		c := run(b, "FT", config.CacheBased)
		h := run(b, "FT", config.HybridReal)
		speedup = float64(c.Cycles) / float64(h.Cycles)
		workRatio = float64(h.PhaseCycles[isa.PhaseWork]) / float64(c.PhaseCycles[isa.PhaseWork])
		filterHit = h.FilterHitRatio
		energy = h.Energy.Total()
	}
	b.ReportMetric(speedup, "speedup(x)")
	b.ReportMetric(workRatio, "workPhase(h/c)")
	b.ReportMetric(filterHit*100, "filterHit(%)")
	b.ReportMetric(energy, "energy(pJ)")
}

// BenchmarkFig10NoCTraffic regenerates Figure 10: total and per-category
// NoC packets of hybrid vs cache.
func BenchmarkFig10NoCTraffic(b *testing.B) {
	var total, dma, coh float64
	for i := 0; i < b.N; i++ {
		c := run(b, "MG", config.CacheBased)
		h := run(b, "MG", config.HybridReal)
		total = float64(h.TotalPkts) / float64(c.TotalPkts)
		dma = float64(h.NoCPackets[noc.DMA]) / float64(c.TotalPkts)
		coh = float64(h.NoCPackets[noc.CohProt]) / float64(c.TotalPkts)
	}
	b.ReportMetric(total, "traffic(h/c)")
	b.ReportMetric(dma, "dmaShare")
	b.ReportMetric(coh, "cohShare")
}

// BenchmarkFig11Energy regenerates Figure 11: the energy breakdown of
// hybrid vs cache.
func BenchmarkFig11Energy(b *testing.B) {
	var total, caches, spms float64
	for i := 0; i < b.N; i++ {
		c := run(b, "SP", config.CacheBased)
		h := run(b, "SP", config.HybridReal)
		total = h.Energy.Total() / c.Energy.Total()
		caches = h.Energy.Caches / c.Energy.Caches
		spms = h.Energy.SPMs / c.Energy.Total()
	}
	b.ReportMetric(total, "energy(h/c)")
	b.ReportMetric(caches, "cacheEnergy(h/c)")
	b.ReportMetric(spms, "spmShare")
}

// runWorkload executes a parameterized registry workload on one system.
func runWorkload(b *testing.B, name, params string, sys config.MemorySystem) system.Results {
	b.Helper()
	spec := system.Spec{System: sys, Benchmark: name, Params: params,
		Scale: benchScale, Overrides: config.Overrides{Cores: benchCores}}
	r, err := spec.ExecuteContext(context.Background())
	if err != nil {
		b.Fatalf("%s: %v", spec.Key(), err)
	}
	return r
}

// benchSystems are the three machines every synthetic probe runs on, so the
// benchmarks cover non-NAS patterns per system.
var benchSystems = []config.MemorySystem{config.CacheBased, config.HybridReal, config.HybridIdeal}

// BenchmarkSyntheticStream runs the streaming-triad registry workload (a
// non-default stride=64) on every system — the bandwidth-bound synthetic
// point.
func BenchmarkSyntheticStream(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.String(), func(b *testing.B) {
			var r system.Results
			for i := 0; i < b.N; i++ {
				r = runWorkload(b, "stream", "stride=64", sys)
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(float64(r.TotalPkts), "packets")
		})
	}
}

// BenchmarkSyntheticPtrchase runs the guarded pointer-chase registry
// workload on every system — the latency/filter-bound synthetic point.
func BenchmarkSyntheticPtrchase(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.String(), func(b *testing.B) {
			var r system.Results
			for i := 0; i < b.N; i++ {
				r = runWorkload(b, "ptrchase", "hot_pct=50", sys)
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(r.FilterHitRatio*100, "filterHit(%)")
		})
	}
}

// BenchmarkAblationFilterSize sweeps the per-core filter capacity on IS
// (DESIGN.md Ablation A) and reports the hit-ratio spread.
func BenchmarkAblationFilterSize(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{8, 48} {
			r, err := system.Spec{
				System: config.HybridReal, Benchmark: "IS", Scale: benchScale,
				Overrides: config.Overrides{Cores: benchCores, FilterEntries: entries},
			}.ExecuteContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if entries == 8 {
				small = r.FilterHitRatio
			} else {
				large = r.FilterHitRatio
			}
		}
	}
	b.ReportMetric(small*100, "hit@8(%)")
	b.ReportMetric(large*100, "hit@48(%)")
}

// BenchmarkAblationLSQRecheck runs a deliberately aliasing kernel (the case
// NAS never triggers) and reports the pipeline flushes taken by the §3.4
// ordering re-check.
func BenchmarkAblationLSQRecheck(b *testing.B) {
	// A kernel whose guarded stores target the SAME array its strided
	// loads map to the SPMs: every SPMDir hit re-checks the LSQ.
	shared := &compiler.Array{Name: "shared", Base: 0x1000_0000, Size: 64 << 10}
	bench := &compiler.Benchmark{
		Name:    "alias",
		Repeats: 1,
		Arrays:  []*compiler.Array{shared},
		Kernels: []compiler.Kernel{{
			Name:       "alias",
			Iters:      8 << 10,
			ComputeOps: 4,
			Refs: []compiler.Ref{
				{Name: "s", Array: shared, Pattern: compiler.Strided},
				{Name: "p", Array: shared, Pattern: compiler.Random,
					MayAliasSPM: true, IsWrite: true},
			},
		}},
	}
	var flushes, diverted float64
	for i := 0; i < b.N; i++ {
		cfg := config.ForSystem(config.HybridReal)
		cfg.Cores = benchCores
		cfg.MeshWidth, cfg.MeshHeight = 2, 4
		if cfg.MemControllers > benchCores {
			cfg.MemControllers = benchCores
		}
		m, err := system.Build(cfg, bench, 7)
		if err != nil {
			b.Fatal(err)
		}
		r, err := m.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		flushes = float64(r.Flushes)
		diverted = float64(m.Protocol.Stats().Get("spmdir.hits") +
			m.Protocol.Stats().Get("spmdir.remote_hits"))
	}
	b.ReportMetric(flushes, "lsqFlushes")
	b.ReportMetric(diverted, "divertedAccesses")
}
