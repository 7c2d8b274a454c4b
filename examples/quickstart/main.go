// Quickstart: build a small hybrid manycore, run a tiny kernel on it, and
// print what the machine did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/system"
)

func main() {
	// 1. Describe a parallel kernel in the compiler IR: one strided array
	//    (mapped to the SPMs by the compiler), one random array the alias
	//    analysis cannot prove independent (guarded accesses).
	iters := 128 << 10
	a := &compiler.Array{Name: "a", Base: 0x1000_0000, Size: iters * 8}
	b := &compiler.Array{Name: "b", Base: 0x1040_0000, Size: iters * 8}
	c := &compiler.Array{Name: "c", Base: 0x1080_0000, Size: iters * 8}
	d := &compiler.Array{Name: "d", Base: 0x10C0_0000, Size: iters * 8}
	lookup := &compiler.Array{Name: "lookup", Base: 0x1100_0000, Size: 64 << 10}
	bench := &compiler.Benchmark{
		Name:    "quickstart",
		Repeats: 2, // an iterative stencil: same data every sweep
		Arrays:  []*compiler.Array{a, b, c, d, lookup},
		Kernels: []compiler.Kernel{{
			Name:       "stencil",
			Iters:      iters,
			ComputeOps: 16,
			Refs: []compiler.Ref{
				{Name: "a", Array: a, Pattern: compiler.Strided, IsWrite: true},
				{Name: "b", Array: b, Pattern: compiler.Strided},
				{Name: "c", Array: c, Pattern: compiler.Strided},
				{Name: "d", Array: d, Pattern: compiler.Strided},
				{Name: "lookup", Array: lookup, Pattern: compiler.Random,
					MayAliasSPM: true, HotFraction: 0.9, HotBytes: 8 << 10},
			},
		}},
	}

	// 2. Build the full Table-1 machine (64 cores) with the
	//    hybrid memory system and the paper's coherence protocol, and run
	//    the kernel to completion.
	run := func(sys config.MemorySystem) system.Results {
		m, err := system.Build(config.ForSystem(sys), bench, system.DefaultSeed)
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.Run(0)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	r := run(config.HybridReal)

	// 3. Inspect the run.
	fmt.Printf("ran %q on a 64-core hybrid machine\n", bench.Name)
	fmt.Printf("  cycles:            %d\n", r.Cycles)
	fmt.Printf("  instructions:      %d\n", r.Retired)
	fmt.Printf("  NoC packets:       %d\n", r.TotalPkts)
	fmt.Printf("  DMA line xfers:    %d\n", r.DMALineTransfers)
	fmt.Printf("  filter hit ratio:  %.2f%%\n", r.FilterHitRatio*100)
	fmt.Printf("  energy:            %.1f uJ\n", r.Energy.Total()/1e6)

	// 4. Compare against the cache-based baseline.
	base := run(config.CacheBased)
	fmt.Printf("speedup over the cache-based system: %.2fx\n",
		float64(base.Cycles)/float64(r.Cycles))
}
