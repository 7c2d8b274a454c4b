// Package cpu models the cores of the manycore: a calibrated approximation
// of the 6-wide out-of-order pipeline of Table 1. Instructions retire at up
// to IssueWidth per cycle; loads issue asynchronously with a bounded
// memory-level-parallelism window (CoreMLP) and a bounded load queue; stores
// drain through a store queue without blocking retirement until it fills.
// Execution cycles are attributed to the control / synchronization / work
// phases of the SPM runtime (paper Fig. 3/Fig. 9).
//
// The core also models the LSQ ordering re-check of paper §3.4: when the
// SPM coherence protocol rewrites a guarded access's address to an SPM
// address, the LSQ is searched for a conflicting in-flight access; a match
// with at least one store flushes the pipeline (PipelineDepth cycles).
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Ops is everything a core asks of the rest of the machine. The system
// package implements it by routing to the cache hierarchy, the SPMs, the
// DMA controllers and the SPM coherence protocol.
type Ops interface {
	// IFetch fetches the instruction-cache line holding pc.
	IFetch(core int, pc uint64, done sim.Cont)
	// Mem executes a memory instruction (any isa kind with IsMemory).
	Mem(core int, inst isa.Inst, done sim.Cont)
	// DMAEnqueue offers a DMAGet/DMAPut to the core's DMAC; false means
	// the command queue is full and the core must retry.
	DMAEnqueue(core int, inst isa.Inst) bool
	// DMASync fires done once all transfers tagged inst.Tag are complete.
	DMASync(core int, tag int, done sim.Cont)
	// SetBufSize programs the protocol's mask registers.
	SetBufSize(core int, bytes int)
}

// Params are the pipeline parameters a core needs.
type Params struct {
	IssueWidth    int
	PipelineDepth int
	LQEntries     int
	SQEntries     int
	MLP           int
	LineSize      int
}

// blockReason says why a core is not retiring instructions.
type blockReason int

const (
	notBlocked  blockReason = iota
	blockLoad               // MLP window or LQ full
	blockStore              // SQ full
	blockIFetch             // fetch queue full (front-end starved)
	blockDMA                // DMAC command queue full
	blockSync               // dma-synch in progress
	blockBarrier
	blockDrain // program done, draining outstanding accesses
)

// Core executes one instruction stream.
type Core struct {
	eng  *sim.Engine
	id   int
	p    Params
	ops  Ops
	prog isa.Program
	bar  *Barrier

	// Issue bookkeeping.
	issueSlots int      // sub-cycle slots consumed (mod IssueWidth)
	budget     sim.Time // accumulated cycles not yet simulated

	// Outstanding accesses.
	loads, stores, fetches int
	lastFetchLine          uint64
	haveFetched            bool

	blocked    blockReason
	blockStart sim.Time
	pendInst   isa.Inst // instruction waiting for resources
	havePend   bool

	phase       isa.Phase
	phaseCycles [isa.NumPhases]sim.Time
	lastStamp   sim.Time

	// LSQ mirror for ordering re-checks.
	lsq lsq

	retired    uint64
	flushes    uint64
	ifetchOps  uint64
	finished   bool
	finishTime sim.Time
	onFinish   func()

	// Cached continuations: each recurring wakeup closure is allocated
	// once per core instead of once per event. Load/store completions need
	// the access address for the LSQ mirror, so they ride pooled memTok
	// nodes off freeToks instead.
	resume      sim.Cont // flushBudget expiry: account + step
	fetchDone   sim.Cont // IFetch completion
	dmaRetry    sim.Cont // DMAC queue-full retry
	syncDone    sim.Cont // DMASync completion
	barrierDone sim.Cont // barrier release
	freeToks    *memTok

	// tr, when set, records stall spans and ordering flushes. Nil on
	// untraced runs: one pointer check per unblock/flush.
	tr *telemetry.Trace
}

// SetTrace enables event tracing on the core.
func (c *Core) SetTrace(tr *telemetry.Trace) { c.tr = tr }

// memTok is a pooled load/store completion token: the callback state (core,
// address, direction) lives on a recycled node, so issuing a memory access
// allocates nothing in steady state.
type memTok struct {
	c     *Core
	addr  uint64
	store bool
	next  *memTok // free-list link
}

// Fire completes the access. The node returns to the pool first: unblocking
// the core can immediately issue a new access that reuses it.
func (t *memTok) Fire() {
	c := t.c
	addr, store := t.addr, t.store
	t.next = c.freeToks
	c.freeToks = t
	if store {
		c.stores--
		c.lsq.remove(addr, true)
		c.unblockIf(blockStore)
	} else {
		c.loads--
		c.lsq.remove(addr, false)
		c.unblockIf(blockLoad)
	}
	c.maybeFinish()
}

// newTok takes a completion token off the free list.
func (c *Core) newTok(addr uint64, store bool) *memTok {
	t := c.freeToks
	if t != nil {
		c.freeToks = t.next
		t.next = nil
	} else {
		t = &memTok{c: c}
	}
	t.addr, t.store = addr, store
	return t
}

// NewCore builds core id running prog. bar may be nil when the program has
// no barriers; onFinish may be nil.
func NewCore(eng *sim.Engine, id int, p Params, ops Ops, prog isa.Program, bar *Barrier, onFinish func()) *Core {
	if p.IssueWidth <= 0 || p.MLP <= 0 || p.LineSize <= 0 {
		panic(fmt.Sprintf("cpu: invalid params %+v", p))
	}
	c := &Core{
		eng: eng, id: id, p: p, ops: ops, prog: prog, bar: bar,
		lsq:      newLSQ(p.LQEntries + p.SQEntries),
		onFinish: onFinish,
	}
	c.resume = sim.AsCont(func() { c.account(); c.step() })
	c.fetchDone = sim.AsCont(func() {
		c.fetches--
		c.unblockIf(blockIFetch)
		c.maybeFinish()
	})
	c.dmaRetry = sim.AsCont(func() { c.unblockIf(blockDMA) })
	c.syncDone = sim.AsCont(func() { c.unblockIf(blockSync) })
	c.barrierDone = sim.AsCont(func() { c.unblockIf(blockBarrier) })
	return c
}

// Start begins execution (call once; the engine drives everything after).
func (c *Core) Start() {
	c.lastStamp = c.eng.Now()
	c.step()
}

// Finished reports whether the core has drained completely.
func (c *Core) Finished() bool { return c.finished }

// FinishTime returns the cycle the core drained (valid once Finished).
func (c *Core) FinishTime() sim.Time { return c.finishTime }

// Retired returns retired instruction count.
func (c *Core) Retired() uint64 { return c.retired }

// Flushes returns LSQ-ordering pipeline flushes taken (paper §3.4).
func (c *Core) Flushes() uint64 { return c.flushes }

// IFetches returns instruction-line fetches issued.
func (c *Core) IFetches() uint64 { return c.ifetchOps }

// PhaseCycles returns cycles attributed to phase.
func (c *Core) PhaseCycles(p isa.Phase) sim.Time { return c.phaseCycles[p] }

// account charges elapsed wall-cycles since the last stamp to the current
// phase.
func (c *Core) account() {
	now := c.eng.Now()
	c.phaseCycles[c.phase] += now - c.lastStamp
	c.lastStamp = now
}

// chargeIssue consumes one issue slot, converting full groups into cycles.
func (c *Core) chargeIssue(n int) {
	c.issueSlots += n
	c.budget += sim.Time(c.issueSlots / c.p.IssueWidth)
	c.issueSlots %= c.p.IssueWidth
}

// flushBudget simulates the accumulated cycles, then resumes stepping.
// Returns true if a wait was scheduled (caller must stop stepping).
func (c *Core) flushBudget() bool {
	if c.budget == 0 {
		return false
	}
	d := c.budget
	c.budget = 0
	c.eng.ScheduleCont(d, c.resume)
	return true
}

// step retires instructions until the core must wait for something.
func (c *Core) step() {
	for {
		inst, ok := c.nextInst()
		if !ok {
			c.drain()
			return
		}
		if c.phase != inst.Phase {
			c.account()
			c.phase = inst.Phase
		}
		// Front-end: fetch each new instruction line.
		if line := inst.PC >> 6; !c.haveFetched || line != c.lastFetchLine {
			if c.fetches >= 2 {
				// Fetch queue full: block until one returns.
				c.block(blockIFetch, inst)
				return
			}
			c.haveFetched = true
			c.lastFetchLine = line
			c.fetches++
			c.ifetchOps++
			c.ops.IFetch(c.id, inst.PC, c.fetchDone)
		}

		if !c.execute(inst) {
			return // blocked or waiting; execute re-enters step
		}
	}
}

// nextInst returns the pending (resource-stalled) instruction or pulls the
// next one from the program.
func (c *Core) nextInst() (isa.Inst, bool) {
	if c.havePend {
		c.havePend = false
		return c.pendInst, true
	}
	return c.prog.Next()
}

// block records why the core stalled and parks inst for retry.
func (c *Core) block(reason blockReason, inst isa.Inst) {
	c.account()
	c.blocked = reason
	c.blockStart = c.eng.Now()
	c.pendInst = inst
	c.havePend = true
}

// unblockIf resumes the core if it is blocked for the given reason.
func (c *Core) unblockIf(reason blockReason) {
	if c.blocked != reason {
		return
	}
	if c.tr != nil {
		c.tr.Add(telemetry.KStall, c.id, c.eng.Now()-c.blockStart, uint64(reason), 0)
	}
	c.blocked = notBlocked
	c.account()
	c.step()
}

// deferForBudget parks inst and simulates the accumulated compute cycles
// first; step resumes with inst afterwards. Reports true if it deferred.
func (c *Core) deferForBudget(inst isa.Inst) bool {
	if c.budget == 0 {
		return false
	}
	c.pendInst = inst
	c.havePend = true
	c.flushBudget()
	return true
}

// execute runs one instruction. It returns false when the core must stop
// stepping (blocked or waiting on scheduled work).
func (c *Core) execute(inst isa.Inst) bool {
	switch inst.Kind {
	case isa.Compute:
		c.retired += uint64(inst.Ops)
		c.chargeIssue(inst.Ops)
		// Cap unsimulated work so wait accounting stays honest.
		if c.budget >= 64 {
			return !c.flushBudget()
		}
		return true

	case isa.Load, isa.GuardedLoad, isa.SPMLoad:
		if c.deferForBudget(inst) {
			return false
		}
		if c.loads >= c.p.MLP || c.loads >= c.p.LQEntries {
			c.block(blockLoad, inst)
			return false
		}
		c.retired++
		c.chargeIssue(1)
		c.lsq.insert(inst.Addr, false)
		c.loads++
		c.ops.Mem(c.id, inst, c.newTok(inst.Addr, false))
		return true

	case isa.Store, isa.GuardedStore, isa.SPMStore:
		if c.deferForBudget(inst) {
			return false
		}
		if c.stores >= c.p.SQEntries {
			c.block(blockStore, inst)
			return false
		}
		c.retired++
		c.chargeIssue(1)
		c.lsq.insert(inst.Addr, true)
		c.stores++
		c.ops.Mem(c.id, inst, c.newTok(inst.Addr, true))
		return true

	case isa.DMAGet, isa.DMAPut:
		if c.deferForBudget(inst) {
			return false
		}
		if !c.ops.DMAEnqueue(c.id, inst) {
			// Command queue full: retry shortly.
			c.block(blockDMA, inst)
			c.eng.ScheduleCont(8, c.dmaRetry)
			return false
		}
		c.retired++
		c.chargeIssue(1)
		return true

	case isa.DMASync:
		if c.deferForBudget(inst) {
			return false
		}
		c.retired++
		c.block(blockSync, isa.Inst{})
		c.havePend = false
		c.ops.DMASync(c.id, inst.Tag, c.syncDone)
		return false

	case isa.SetBufSize:
		c.retired++
		c.chargeIssue(1)
		c.ops.SetBufSize(c.id, inst.Bytes)
		return true

	case isa.Barrier:
		if c.deferForBudget(inst) {
			return false
		}
		c.retired++
		if c.bar == nil {
			return true
		}
		c.block(blockBarrier, isa.Inst{})
		c.havePend = false
		c.bar.Arrive(c.barrierDone)
		return false

	case isa.PhaseBegin:
		return true

	default:
		panic(fmt.Sprintf("cpu: unknown instruction kind %v", inst.Kind))
	}
}

// drain finishes the program: wait for the budget and outstanding accesses.
func (c *Core) drain() {
	if c.flushBudget() {
		return // re-enters step -> drain
	}
	c.blocked = blockDrain
	c.maybeFinish()
}

func (c *Core) maybeFinish() {
	if c.finished || c.blocked != blockDrain {
		return
	}
	if c.loads > 0 || c.stores > 0 || c.fetches > 0 {
		return
	}
	c.finished = true
	c.account()
	c.finishTime = c.eng.Now()
	if c.onFinish != nil {
		c.onFinish()
	}
}

// ---------------------------------------------------------------------------
// LSQ mirror (§3.4)

// lsq mirrors the core's in-flight memory accesses for the §3.4 re-check: a
// ring of LQ+SQ slots written in issue order, where a wrap overwrites
// whatever slot it lands on, live or not. A completing access frees the
// lowest-index live slot with its address and direction. A small hash index
// keeps that rule without scanning the ring: every live slot is linked,
// in ascending slot order, into the bucket of its 8-byte word, so both the
// completion and the re-check walk only the slots that can match.
type lsq struct {
	slots []lsqEntry
	pos   int
	heads []int32 // per bucket: lowest live slot hashed there, -1 if none
	shift uint    // 64 - log2(len(heads))
}

// lsqEntry is one ring slot.
type lsqEntry struct {
	addr  uint64
	next  int32 // next live slot in the same bucket (ascending), -1 ends
	store bool
	live  bool
}

func newLSQ(n int) lsq {
	log2 := bits.Len(uint(n - 1)) // buckets: n rounded up to a power of two
	heads := make([]int32, 1<<log2)
	for i := range heads {
		heads[i] = -1
	}
	return lsq{slots: make([]lsqEntry, n), heads: heads, shift: uint(64 - log2)}
}

// bucket returns the head link of the bucket addr's 8-byte word hashes to.
func (q *lsq) bucket(addr uint64) *int32 {
	return &q.heads[(addr>>3)*0x9E3779B97F4A7C15>>q.shift]
}

// insert records a newly issued access in the next ring slot.
func (q *lsq) insert(addr uint64, store bool) {
	s := int32(q.pos)
	e := &q.slots[s]
	if e.live {
		p := q.bucket(e.addr)
		for *p != s {
			p = &q.slots[*p].next
		}
		*p = e.next
	}
	p := q.bucket(addr)
	for *p >= 0 && *p < s {
		p = &q.slots[*p].next
	}
	*e = lsqEntry{addr: addr, next: *p, store: store, live: true}
	*p = s
	q.pos = (q.pos + 1) % len(q.slots)
}

// remove frees the lowest live slot holding (addr, store), if a ring wrap
// has not already overwritten it.
func (q *lsq) remove(addr uint64, store bool) {
	for p := q.bucket(addr); *p >= 0; p = &q.slots[*p].next {
		e := &q.slots[*p]
		if e.addr == addr && e.store == store {
			*p = e.next
			e.live = false
			return
		}
	}
}

// conflict reports whether a live access touches addr's 8-byte word with at
// least one of the pair a store.
func (q *lsq) conflict(addr uint64, store bool) bool {
	const wordMask = ^uint64(7)
	for s := *q.bucket(addr); s >= 0; s = q.slots[s].next {
		e := &q.slots[s]
		if e.addr&wordMask == addr&wordMask && (e.store || store) {
			return true
		}
	}
	return false
}

// Recheck implements the protocol's RecheckHook for this core: the guarded
// access's address changed to spmAddr; search the LSQ for an in-flight
// access to the same 8-byte word where at least one of the pair is a store.
// A hit means the out-of-order core may have violated program order, so the
// pipeline is flushed (PipelineDepth cycles).
func (c *Core) Recheck(spmAddr uint64, isStore bool) bool {
	if !c.lsq.conflict(spmAddr, isStore) {
		return false
	}
	c.flushes++
	if c.tr != nil {
		c.tr.Add(telemetry.KFlush, c.id, 0, spmAddr, 0)
	}
	c.budget += sim.Time(c.p.PipelineDepth)
	return true
}

// ---------------------------------------------------------------------------
// Barrier

// Barrier joins n cores; the last arrival releases everyone (fork-join
// parallelism between kernels).
type Barrier struct {
	eng     *sim.Engine
	n       int
	arrived int
	waiters []sim.Cont // reused across epochs
	epochs  uint64
}

// NewBarrier builds a barrier over n cores.
func NewBarrier(eng *sim.Engine, n int) *Barrier {
	if n <= 0 {
		panic("cpu: barrier over no cores")
	}
	return &Barrier{eng: eng, n: n}
}

// Arrive registers one core; done fires when all n have arrived.
func (b *Barrier) Arrive(done sim.Cont) {
	b.arrived++
	b.waiters = append(b.waiters, done)
	if b.arrived < b.n {
		return
	}
	b.arrived = 0
	b.epochs++
	// ScheduleCont copies each continuation into the event queue, so the
	// backing array can be truncated and reused for the next epoch.
	for i, w := range b.waiters {
		b.eng.ScheduleCont(1, w)
		b.waiters[i] = nil
	}
	b.waiters = b.waiters[:0]
}

// Epochs returns how many times the barrier has released.
func (b *Barrier) Epochs() uint64 { return b.epochs }
