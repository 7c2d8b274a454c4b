package compiler

import (
	"fmt"

	"repro/internal/isa"
)

// GenOptions parameterizes code generation for one core.
type GenOptions struct {
	Cores int // total cores
	Core  int // this core

	Hybrid        bool // hybrid memory system vs cache-based
	SPMSize       int  // bytes per SPM (hybrid)
	SPMDirEntries int  // SPMDir capacity: bounds the buffer count
	SPMBase       uint64
	StackBase     uint64
	Seed          uint64
}

const (
	elemBytes = 8 // every reference moves 8-byte elements

	// Code layout: each kernel's work body has stable PCs so the L1I and
	// the stride prefetcher see a loop, and the SPM runtime library lives
	// in its own code region (its extra instruction fetches are the
	// paper's ~3% Ifetch overhead).
	workCodeBase    = 0x0040_0000
	runtimeCodeBase = 0x0080_0000
	kernelCodeSpan  = 0x1000

	// Control-phase bookkeeping cost of one runtime MAP call, in ALU ops
	// (pointer updates, tag setup, iteration bounds — Fig. 3).
	mapCallOps = 24
	// Per-tile loop bookkeeping in the transformed code.
	tileLoopOps = 16

	// Cache-based code generation emits work in fixed-size blocks.
	cacheBlockIters = 2048
)

// BufferPlan describes the equal-size SPM buffer allocation the runtime
// performs before a loop (ALLOCATE_BUFFERS in Fig. 3).
type BufferPlan struct {
	NumBuffers int
	BufBytes   int
	TileIters  int // iterations per tile = BufBytes / elemBytes
}

// PlanBuffers divides the SPM among the kernel's SPM-classified references.
// The buffer size is the largest power of two that (a) fits every buffer in
// the SPM, (b) keeps SPMSize/BufBytes within the SPMDir capacity (§3.1),
// and (c) yields at least one tile per core so the fork-join loop keeps the
// whole machine busy.
func PlanBuffers(k *Kernel, spmSize, spmDirEntries, cores int) (BufferPlan, error) {
	n := 0
	for i := range k.Refs {
		if Classify(&k.Refs[i]) == ClassSPM {
			n++
		}
	}
	if n == 0 {
		return BufferPlan{}, nil
	}
	if n > spmDirEntries {
		return BufferPlan{}, fmt.Errorf("compiler: kernel %s needs %d buffers > %d SPMDir entries",
			k.Name, n, spmDirEntries)
	}
	buf := 1
	for buf*2*n <= spmSize {
		buf *= 2
	}
	minBuf := spmSize / spmDirEntries // SPMDir must cover every window
	if minBuf < elemBytes {
		minBuf = elemBytes
	}
	for buf < minBuf {
		buf *= 2
	}
	// Shrink buffers until every core owns at least one tile (when the
	// iteration count allows it at all).
	if cores > 0 {
		for buf > minBuf && k.Iters/(buf/elemBytes) < cores {
			buf /= 2
		}
	}
	if buf < elemBytes || buf > spmSize {
		return BufferPlan{}, fmt.Errorf("compiler: kernel %s: no feasible buffer size", k.Name)
	}
	return BufferPlan{NumBuffers: n, BufBytes: buf, TileIters: buf / elemBytes}, nil
}

// rng is xorshift64*: deterministic, seedable, allocation-free.
type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return rng(seed)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// refAddr generates the address a reference touches at global iteration it.
func refAddr(r *Ref, it int, opt *GenOptions, rnd *rng) uint64 {
	switch r.Pattern {
	case Strided:
		// Sparse strided refs (Every > 1) traverse a compacted section:
		// one element per Every iterations.
		j := uint64(it / r.every())
		st := uint64(r.stride())
		if st == elemBytes {
			return r.Array.Base + j*elemBytes
		}
		// Non-unit stride: hop st bytes per element and wrap column-major
		// once past the array's end (the j-th element of a transpose's
		// write stream). period is the number of hops per pass; each
		// completed pass shifts the lane by one dense element.
		period := uint64(r.Array.Size) / st
		if period == 0 {
			return r.Array.Base + j*elemBytes // stride wider than the array
		}
		return r.Array.Base + (j%period)*st + (j/period)*elemBytes
	case Stack:
		// Cycle within a 4 KB frame: high L1 locality.
		return opt.StackBase + uint64(it*16)%4096
	case Random:
		if r.HotFraction > 0 && r.HotBytes > 0 && rnd.float() < r.HotFraction {
			span := r.HotBytes
			if span > r.Array.Size {
				span = r.Array.Size
			}
			// Hot windows partition the array across cores (bucket
			// affinity): distinct cores get distinct windows until
			// the array runs out of them.
			windows := r.Array.Size / span
			hotStart := 0
			if windows > 0 {
				hotStart = (opt.Core % windows) * span
			}
			off := int(rnd.next()%uint64(span)) &^ (elemBytes - 1)
			return r.Array.Base + uint64(hotStart+off)
		}
		off := rnd.next() % uint64(r.Array.Size/elemBytes) * elemBytes
		return r.Array.Base + off
	default:
		panic("compiler: bad pattern")
	}
}

// memInst builds the instruction for one dynamic reference instance.
func memInst(r *Ref, class Class, addr, pc uint64, phase isa.Phase) isa.Inst {
	var k isa.Kind
	switch class {
	case ClassSPM:
		if r.IsWrite {
			k = isa.SPMStore
		} else {
			k = isa.SPMLoad
		}
	case ClassGuarded:
		if r.IsWrite {
			k = isa.GuardedStore
		} else {
			k = isa.GuardedLoad
		}
	default:
		if r.IsWrite {
			k = isa.Store
		} else {
			k = isa.Load
		}
	}
	return isa.Inst{Kind: k, Addr: addr, PC: pc, Phase: phase}
}

// Generate produces core opt.Core's instruction stream for the benchmark.
// Hybrid mode performs the Fig. 3 transformation (tiling + runtime calls);
// cache mode emits the original loop. Kernels are separated by barriers and
// the whole kernel sequence repeats b.Repeats times.
func Generate(b *Benchmark, opt GenOptions) isa.Program {
	if opt.Cores <= 0 || opt.Core < 0 || opt.Core >= opt.Cores {
		panic(fmt.Sprintf("compiler: bad core %d/%d", opt.Core, opt.Cores))
	}
	g := &generator{b: b, opt: opt}
	return g
}

// generator lazily materializes the instruction stream in small batches:
// a tile's control and sync prologue, then one work iteration per refill,
// then the kernel epilogue. Only one batch is ever buffered, so a core's
// stream costs O(refs per iteration) memory however long the tile. The
// random address draws (rnd) happen in iteration order inside each batch,
// exactly as a whole-tile expansion would make them.
type generator struct {
	b   *Benchmark
	opt GenOptions

	rep    int
	kernel int
	inited bool // per-kernel setup done
	plan   BufferPlan
	tile   int // next tile index within this core's range
	tile0  int // first tile owned by this core
	tileN  int // one past the last
	rnd    rng

	// The tile whose work phase is being emitted: iterations
	// [itStart, itEnd), it the next one.
	itStart, it, itEnd int
	hybrid             bool // the tile runs the SPM transformation

	buf []isa.Inst
	pos int
}

// Next implements isa.Program.
func (g *generator) Next() (isa.Inst, bool) {
	for g.pos >= len(g.buf) {
		if !g.refill() {
			return isa.Inst{}, false
		}
	}
	inst := g.buf[g.pos]
	g.pos++
	return inst, true
}

// refill produces the next batch of instructions. Returns false at stream
// end. A batch may be empty (a cache-mode tile has no prologue; a sparse
// iteration may skip every reference).
func (g *generator) refill() bool {
	g.buf = g.buf[:0]
	g.pos = 0

	if g.rep >= g.b.Repeats {
		return false
	}
	k := &g.b.Kernels[g.kernel]

	if !g.inited {
		g.initKernel(k)
	}

	if g.it < g.itEnd {
		g.emitIteration(k, g.it)
		g.it++
		return true
	}

	if g.tile < g.tileN {
		g.beginTile(k, g.tile)
		g.tile++
		return true
	}

	// Kernel finished on this core: final write-backs + barrier.
	g.emitKernelEpilogue(k)
	g.inited = false
	g.kernel++
	if g.kernel >= len(g.b.Kernels) {
		g.kernel = 0
		g.rep++
	}
	return true
}

// initKernel computes the tiling for this kernel and this core. The
// cache-based machine distributes iterations with the same tile boundaries
// as the hybrid so the two systems execute identical work partitions.
func (g *generator) initKernel(k *Kernel) {
	g.inited = true
	plan, err := PlanBuffers(k, g.opt.SPMSize, g.opt.SPMDirEntries, g.opt.Cores)
	if err != nil {
		panic(err)
	}
	if plan.NumBuffers == 0 {
		plan.TileIters = cacheBlockIters
		for g.opt.Cores > 0 && plan.TileIters > 64 &&
			k.Iters/plan.TileIters < g.opt.Cores {
			plan.TileIters /= 2
		}
	}
	g.plan = plan
	totalTiles := (k.Iters + plan.TileIters - 1) / plan.TileIters
	g.tile0 = g.opt.Core * totalTiles / g.opt.Cores
	g.tileN = (g.opt.Core + 1) * totalTiles / g.opt.Cores
	g.tile = g.tile0
	g.rnd = newRNG(g.opt.Seed ^ (uint64(g.opt.Core) << 32) ^ (uint64(g.kernel) << 16) ^ (uint64(g.rep) + 1))

	if g.opt.Hybrid && plan.NumBuffers > 0 {
		// ALLOCATE_BUFFERS: program the Base/Offset mask registers.
		pc := g.runtimePC(0)
		g.buf = append(g.buf,
			isa.Inst{Kind: isa.Compute, Ops: tileLoopOps, PC: pc, Phase: isa.PhaseControl},
			isa.Inst{Kind: isa.SetBufSize, Bytes: plan.BufBytes, PC: pc + 4, Phase: isa.PhaseControl})
	}
}

// workPC returns the stable PC of work-body slot i for the current kernel.
func (g *generator) workPC(i int) uint64 {
	return workCodeBase + uint64(g.kernel)*kernelCodeSpan + uint64(i)*4
}

// runtimePC returns a PC inside the runtime library region.
func (g *generator) runtimePC(i int) uint64 {
	return runtimeCodeBase + uint64(g.kernel%4)*kernelCodeSpan + uint64(i)*4
}

// beginTile emits the control and sync phases of one tile (hybrid) and
// arms the work-phase cursor over the tile's iterations.
func (g *generator) beginTile(k *Kernel, tile int) {
	itStart := tile * g.plan.TileIters
	itEnd := itStart + g.plan.TileIters
	if itEnd > k.Iters {
		itEnd = k.Iters
	}
	g.itStart, g.it, g.itEnd = itStart, itStart, itEnd
	g.hybrid = g.opt.Hybrid && g.plan.NumBuffers > 0
	if !g.hybrid {
		return
	}

	// Control phase: one MAP per SPM reference (Fig. 3). MAP writes back
	// the previously mapped chunk when the buffer is dirty and dma-gets
	// the next chunk.
	bufIdx := 0
	rpc := 0
	for ri := range k.Refs {
		r := &k.Refs[ri]
		if Classify(r) != ClassSPM {
			continue
		}
		// A sparse section (Every > 1) moves proportionally fewer
		// bytes per tile.
		ev := r.every()
		chunkSpan := g.plan.BufBytes / ev
		gmChunk := r.Array.Base + uint64(tile)*uint64(chunkSpan)
		spmAddr := g.opt.SPMBase + uint64(bufIdx)*uint64(g.plan.BufBytes)
		bytes := ((itEnd - itStart + ev - 1) / ev) * elemBytes
		g.buf = append(g.buf, isa.Inst{Kind: isa.Compute, Ops: mapCallOps,
			PC: g.runtimePC(rpc), Phase: isa.PhaseControl})
		rpc++
		if r.IsWrite && tile > g.tile0 {
			prevChunk := r.Array.Base + uint64(tile-1)*uint64(chunkSpan)
			g.buf = append(g.buf, isa.Inst{Kind: isa.DMAPut,
				Addr: prevChunk, Addr2: spmAddr, Bytes: chunkSpan,
				Tag: bufIdx, PC: g.runtimePC(rpc), Phase: isa.PhaseControl})
			rpc++
		}
		g.buf = append(g.buf, isa.Inst{Kind: isa.DMAGet,
			Addr: gmChunk, Addr2: spmAddr, Bytes: bytes,
			Tag: bufIdx, PC: g.runtimePC(rpc), Phase: isa.PhaseControl})
		rpc++
		bufIdx++
	}
	// Synchronization phase: wait for every buffer's transfers.
	for bi := 0; bi < g.plan.NumBuffers; bi++ {
		g.buf = append(g.buf, isa.Inst{Kind: isa.DMASync, Tag: bi,
			PC: g.runtimePC(rpc), Phase: isa.PhaseSync})
		rpc++
	}
}

// emitIteration emits the work phase of global iteration it of the current
// tile: one memory instruction per reference active at it, then the
// iteration's compute block.
func (g *generator) emitIteration(k *Kernel, it int) {
	slot := 0
	bufIdx := 0
	for ri := range k.Refs {
		r := &k.Refs[ri]
		class := Classify(r)
		if !g.hybrid {
			// Cache-based machine: everything is a plain GM access
			// (no SPMs, no guard prefix semantics).
			class = ClassGM
		}
		isSPM := class == ClassSPM
		var myBuf int
		if isSPM {
			myBuf = bufIdx
			bufIdx++
		}
		if it%r.every() != 0 {
			slot++
			continue
		}
		var addr uint64
		if isSPM {
			addr = g.opt.SPMBase + uint64(myBuf)*uint64(g.plan.BufBytes) +
				uint64((it-g.itStart)/r.every())*elemBytes
		} else {
			addr = refAddr(r, it, &g.opt, &g.rnd)
		}
		g.buf = append(g.buf, memInst(r, class, addr, g.workPC(slot), isa.PhaseWork))
		slot++
	}
	if k.ComputeOps > 0 {
		g.buf = append(g.buf, isa.Inst{Kind: isa.Compute, Ops: k.ComputeOps,
			PC: g.workPC(slot), Phase: isa.PhaseWork})
	}
}

// emitKernelEpilogue writes dirty buffers back (hybrid) and joins the
// barrier that separates kernels.
func (g *generator) emitKernelEpilogue(k *Kernel) {
	if g.opt.Hybrid && g.plan.NumBuffers > 0 && g.tileN > g.tile0 {
		lastTile := g.tileN - 1
		bufIdx := 0
		rpc := 0
		for ri := range k.Refs {
			r := &k.Refs[ri]
			if Classify(r) != ClassSPM {
				continue
			}
			if r.IsWrite {
				chunkSpan := g.plan.BufBytes / r.every()
				gmChunk := r.Array.Base + uint64(lastTile)*uint64(chunkSpan)
				spmAddr := g.opt.SPMBase + uint64(bufIdx)*uint64(g.plan.BufBytes)
				g.buf = append(g.buf, isa.Inst{Kind: isa.DMAPut,
					Addr: gmChunk, Addr2: spmAddr, Bytes: chunkSpan,
					Tag: bufIdx, PC: g.runtimePC(rpc), Phase: isa.PhaseControl})
				rpc++
				g.buf = append(g.buf, isa.Inst{Kind: isa.DMASync, Tag: bufIdx,
					PC: g.runtimePC(rpc), Phase: isa.PhaseSync})
				rpc++
			}
			bufIdx++
		}
	}
	g.buf = append(g.buf, isa.Inst{Kind: isa.Barrier,
		PC: g.workPC(0), Phase: isa.PhaseWork})
}
