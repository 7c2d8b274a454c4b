// Package coherence implements the coherent global-memory (GM) hierarchy of
// the simulated manycore: per-core L1 I/D caches, a shared NUCA L2 sliced
// across cores, and a distributed directory running a MOESI-style
// invalidation protocol with blocking (transient) states. It also provides
// the DMA hooks the hybrid memory system needs: dma-get snoops dirty data
// out of caches without invalidating, dma-put writes memory and invalidates
// every cached copy (paper §2.1).
//
// Protocol notes. L1 lines are I/S/E/M; the home directory tracks, per line,
// an exclusive owner (E/M in some L1) or a sharer set (S copies), and
// serializes transactions with a busy bit + wait queue, which is how the
// "blocking states" of Table 1 appear in an event-driven model. Dirty data
// moves L1→L2 on downgrades and L2→DRAM on L2 evictions, so memory is always
// valid when no owner exists. The directory is sized like Table 1 (64K
// entries — enough to track every line the L1s can hold), so
// directory-capacity recalls never fire and are not modelled.
//
// Hot-path memory discipline: every protocol transaction is a pooled txn
// node stepping through a (kind, step) state machine instead of a chain of
// heap-allocated closures, the directory is a table.Table with inline
// entries, and counters are pre-interned handles. Steady-state
// simulation allocates nothing per access.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/telemetry"
)

// L1 line states (cache.Invalid == 0 means not present).
const (
	StateS int8 = 1 // shared, clean
	StateE int8 = 2 // exclusive, clean
	StateM int8 = 3 // modified
)

// Message sizes on the NoC in bytes.
const (
	ctrlBytes = 8
	dataBytes = 72 // 64B line + header
)

// Interned counter handles: names are resolved to flat slice indices once at
// package init, so hot-path increments are a bounds-checked add.
var (
	cohReg = stats.NewReg()

	hTLBAcc     = cohReg.Handle("tlb.accesses")
	hTLBMiss    = cohReg.Handle("tlb.misses")
	hL1IAcc     = cohReg.Handle("l1i.accesses")
	hL1IMiss    = cohReg.Handle("l1i.misses")
	hL1DAcc     = cohReg.Handle("l1d.accesses")
	hL1DUpg     = cohReg.Handle("l1d.upgrades")
	hL1WB       = cohReg.Handle("l1.writebacks")
	hL1Repl     = cohReg.Handle("l1.repl_notices")
	hL1Inval    = cohReg.Handle("l1.invalidations")
	hPrefIssued = cohReg.Handle("prefetch.issued")
	hL2Acc      = cohReg.Handle("l2.accesses")
	hL2Hit      = cohReg.Handle("l2.hits")
	hL2Miss     = cohReg.Handle("l2.misses")
	hL2WB       = cohReg.Handle("l2.writebacks")
	hFwdGetS    = cohReg.Handle("dir.fwd_gets")
	hFwdGetM    = cohReg.Handle("dir.fwd_getm")
	hDirInval   = cohReg.Handle("dir.invalidations")
	hDRAMRead   = cohReg.Handle("dram.reads")
	hDRAMWrite  = cohReg.Handle("dram.writes")
	hDMASnoop   = cohReg.Handle("dma.snoops")
	hDMAInval   = cohReg.Handle("dma.invalidations")
)

// Hierarchy is the full coherent GM system for all cores.
type Hierarchy struct {
	eng  *sim.Engine
	cfg  config.Config
	mesh *noc.Mesh
	dram *mem.System

	lineShift uint
	pageShift uint

	l1d []*l1cache
	l1i []*l1cache
	tlb []*cache.Array

	slices []*l2slice

	set *stats.Counters

	// tr, when set, wraps demand and DMA accesses in trace spans. Nil on
	// untraced runs: one pointer check per access, nothing else.
	tr *telemetry.Trace

	freeTxns *txn

	// wake schedules an MSHR waiter for the current cycle; cached once so
	// draining a fill's waiters allocates nothing.
	wake func(sim.Cont)
}

// l1cache bundles one core's L1 array with its MSHRs and (for the D-cache)
// prefetcher.
type l1cache struct {
	arr  *cache.Array
	mshr *cache.MSHR
	pf   *cache.StridePrefetcher
}

// l2slice is one bank of the shared NUCA L2 plus its directory slice.
type l2slice struct {
	node int
	arr  *cache.Array
	dir  table.Table[dirEntry]
}

// New wires up the hierarchy over an existing mesh and DRAM system.
func New(eng *sim.Engine, cfg config.Config, mesh *noc.Mesh, dram *mem.System) *Hierarchy {
	h := &Hierarchy{
		eng:       eng,
		cfg:       cfg,
		mesh:      mesh,
		dram:      dram,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		pageShift: 12,
		set:       cohReg.NewCounters("coherence"),
	}
	h.wake = func(c sim.Cont) { h.eng.ScheduleCont(0, c) }
	for i := 0; i < cfg.Cores; i++ {
		h.l1d = append(h.l1d, &l1cache{
			arr:  cache.NewArray(cfg.L1DSize, cfg.L1DAssoc, cfg.LineSize),
			mshr: cache.NewMSHR(cfg.MSHREntries),
			pf:   cache.NewStridePrefetcher(cfg.PrefetchTableSz, cfg.PrefetchDegree, cfg.PrefetchDistance),
		})
		h.l1i = append(h.l1i, &l1cache{
			arr:  cache.NewArray(cfg.L1ISize, cfg.L1IAssoc, cfg.LineSize),
			mshr: cache.NewMSHR(cfg.MSHREntries),
		})
		h.tlb = append(h.tlb, cache.NewArray(cfg.TLBEntries*64, cfg.TLBEntries, 64))
		s := &l2slice{
			node: i,
			arr:  cache.NewArray(cfg.L2SliceSize, cfg.L2Assoc, cfg.LineSize),
		}
		s.dir.Init(256)
		h.slices = append(h.slices, s)
	}
	return h
}

// SetTrace enables event tracing on the hierarchy.
func (h *Hierarchy) SetTrace(tr *telemetry.Trace) { h.tr = tr }

// LineAddr converts a byte address to a line address.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return addr >> h.lineShift }

// homeOf returns the L2/directory slice owning a line (static interleave).
func (h *Hierarchy) homeOf(line uint64) *l2slice {
	return h.slices[line%uint64(len(h.slices))]
}

// Stats returns the hierarchy's counter set.
func (h *Hierarchy) Stats() *stats.Counters { return h.set }

// L1DHits aggregates L1D hit counts over all cores.
func (h *Hierarchy) L1DHits() uint64 {
	var t uint64
	for _, c := range h.l1d {
		t += c.arr.Hits()
	}
	return t
}

// L1DMisses aggregates L1D miss counts over all cores.
func (h *Hierarchy) L1DMisses() uint64 {
	var t uint64
	for _, c := range h.l1d {
		t += c.arr.Misses()
	}
	return t
}

// PrefetchesIssued aggregates prefetch counts over all cores.
func (h *Hierarchy) PrefetchesIssued() uint64 {
	var t uint64
	for _, c := range h.l1d {
		t += c.pf.Issued()
	}
	return t
}

// ---------------------------------------------------------------------------
// Directory entries. Each holds its waiting transactions as an intrusive
// deque of txn nodes, so queuing and the release-time requeue are O(1).

// dirEntry is the directory state for one line. owner >= 0 means some L1
// holds the line in E or M; sharers is a bit-vector of S copies. busy
// serializes transactions; wqHead/wqTail queue deferred ones.
type dirEntry struct {
	sharers uint64
	owner   int32
	busy    bool
	wqHead  *txn
	wqTail  *txn
}

// entry returns the slice's directory entry for line, inserting a fresh one
// (owner -1) if absent. The pointer is valid only until the next insertion:
// the table grows, so transaction steps re-find their entry rather than
// caching it.
func (s *l2slice) entry(line uint64) *dirEntry {
	e, fresh := s.dir.Put(line)
	if fresh {
		e.owner = -1
	}
	return e
}

// ---------------------------------------------------------------------------
// TLB

// tlbLookup charges TLB energy and returns the page-walk penalty (0 on hit).
// SPM accesses never call this: the range check bypasses the MMU (paper §2.1).
func (h *Hierarchy) tlbLookup(core int, addr uint64) sim.Time {
	h.set.Inc(hTLBAcc)
	page := addr >> h.pageShift
	t := h.tlb[core]
	if t.Lookup(page, true) != nil {
		return 0
	}
	h.set.Inc(hTLBMiss)
	t.Insert(page, StateS)
	return sim.Time(h.cfg.TLBMissLat)
}

// ---------------------------------------------------------------------------
// Transaction nodes. One pooled txn per concurrent protocol strand: the main
// request strand morphs from requester-side fill logic into directory-side
// processing and back; fan-out strands (invalidations, the forward-GetS
// write-back) get their own nodes. Nodes are recycled before firing any
// external continuation, so re-entrant handlers reuse them immediately.

const (
	kAccess       uint8 = iota // L1D demand access (step 0 body, 1 miss retry)
	kIFetch                    // L1I fetch (step 0 body, 1 MSHR-full retry)
	kFillIFetch                // GetS grant arriving at the L1I
	kFillDemand                // fill grant at the L1D (step 0 GetS, 1 GetM)
	kFillPrefetch              // prefetch grant (step 0 GetS, 1 GetM)
	kDirGetS                   // read request at the home slice
	kFwdWB                     // dirty data from a forward-GetS owner
	kDirGetM                   // write/upgrade request at the home slice
	kInvalGetM                 // one GetM sharer-invalidation strand
	kDirPutM                   // M-line write-back at the home slice
	kDirPutS                   // clean replacement notice at the home slice
	kMemWrite                  // dirty line arriving at a DRAM controller
	kDMARead                   // dma-get line fetch at the home slice
	kDMAWrite                  // dma-put line write at the home slice
	kInvalDMA                  // one dma-put invalidation strand
)

// txn is a pooled protocol-transaction node; next links it into either the
// free list or a directory entry's waiting deque.
type txn struct {
	h       *Hierarchy
	next    *txn
	ptxn    *txn     // requester fill txn (dir kinds) or parent (fan-out kinds)
	done    sim.Cont // external continuation (access/DMA kinds)
	kind    uint8
	step    uint8
	gated   bool // rescheduled by release: requeue at the front on conflict
	allowE  bool
	flag    bool // exclusive grant (fills) / requester-had-copy (GetM) / E victim (PutS)
	write   bool
	core    int
	aux     int // owner / invalidation target / DRAM controller index
	pending int
	line    uint64
	pc      uint64
	cat     noc.Category
}

func (h *Hierarchy) allocTxn() *txn {
	t := h.freeTxns
	if t != nil {
		h.freeTxns = t.next
		*t = txn{h: h}
	} else {
		t = &txn{h: h}
	}
	return t
}

func (h *Hierarchy) freeTxn(t *txn) {
	t.done = nil
	t.ptxn = nil
	t.next = h.freeTxns
	h.freeTxns = t
}

// Fire advances the transaction one step; it runs as a mesh delivery, an
// engine event, or a DRAM completion depending on the kind and step.
func (t *txn) Fire() {
	h := t.h
	switch t.kind {
	case kAccess:
		if t.step == 0 {
			h.accessBody(t)
		} else {
			h.missStep(t)
		}
	case kIFetch:
		h.ifetchStep(t)
	case kFillIFetch:
		l1 := h.l1i[t.core]
		line := t.line
		h.fillArray(l1, t.core, line, StateS, false, noc.Ifetch)
		h.freeTxn(t)
		l1.mshr.Complete(line, h.wake)
	case kFillDemand:
		h.fillDemandStep(t)
	case kFillPrefetch:
		h.fillPrefetchStep(t)
	case kDirGetS:
		h.dirGetSStep(t)
	case kFwdWB:
		s := h.homeOf(t.line)
		h.l2Fill(s, t.line, true)
		e := s.entry(t.line)
		e.owner = -1
		e.sharers |= 1<<uint(t.aux) | 1<<uint(t.core)
		line := t.line
		h.freeTxn(t)
		h.release(s, line)
	case kDirGetM:
		h.dirGetMStep(t)
	case kInvalGetM:
		h.invalGetMStep(t)
	case kDirPutM:
		if !h.dirGate(t) {
			return
		}
		s := h.homeOf(t.line)
		e := s.entry(t.line)
		if e.owner == int32(t.core) {
			e.owner = -1
			h.l2Fill(s, t.line, true)
		}
		// Stale PutM (ownership already moved on): drop silently.
		line := t.line
		h.freeTxn(t)
		h.release(s, line)
	case kDirPutS:
		if !h.dirGate(t) {
			return
		}
		s := h.homeOf(t.line)
		e := s.entry(t.line)
		e.sharers &^= 1 << uint(t.core)
		if t.flag && e.owner == int32(t.core) {
			e.owner = -1 // clean E eviction; memory/L2 already valid
		}
		line := t.line
		h.freeTxn(t)
		h.release(s, line)
	case kMemWrite:
		ctrl := t.aux
		h.freeTxn(t)
		h.dram.Controller(ctrl).Access(true, sim.Nop)
	case kDMARead:
		h.dmaReadStep(t)
	case kDMAWrite:
		h.dmaWriteStep(t)
	case kInvalDMA:
		h.invalDMAStep(t)
	default:
		panic(fmt.Sprintf("coherence: bad txn kind %d", t.kind))
	}
}

// ---------------------------------------------------------------------------
// CPU-facing API

// Read performs a coherent GM load for core at addr (instruction pc drives
// the prefetcher). done runs when the value is available.
func (h *Hierarchy) Read(core int, addr, pc uint64, done sim.Cont) {
	h.access(core, addr, pc, false, done)
}

// Write performs a coherent GM store.
func (h *Hierarchy) Write(core int, addr, pc uint64, done sim.Cont) {
	h.access(core, addr, pc, true, done)
}

// access is the common demand-access path for the L1D.
func (h *Hierarchy) access(core int, addr, pc uint64, write bool, done sim.Cont) {
	if done == nil {
		done = sim.Nop
	}
	if h.tr != nil {
		var w uint64
		if write {
			w = 1
		}
		done = h.tr.Span(telemetry.KCohAccess, core, addr, w, done)
	}
	h.set.Inc(hL1DAcc)
	walk := h.tlbLookup(core, addr)
	t := h.allocTxn()
	t.kind = kAccess
	t.core = core
	t.line = h.LineAddr(addr)
	t.pc = pc
	t.write = write
	t.done = done
	h.eng.ScheduleCont(walk+sim.Time(h.cfg.L1DLatency), t)
}

// accessBody runs after the TLB walk and L1D latency.
func (h *Hierarchy) accessBody(t *txn) {
	core, line, write := t.core, t.line, t.write
	l1 := h.l1d[core]
	h.prefetch(core, t.pc, line)
	if l := l1.arr.Lookup(line, true); l != nil {
		if !write {
			d := t.done
			h.freeTxn(t)
			d.Fire()
			return
		}
		switch l.State {
		case StateM:
			d := t.done
			h.freeTxn(t)
			d.Fire()
			return
		case StateE:
			l.State = StateM
			l.Dirty = true
			d := t.done
			h.freeTxn(t)
			d.Fire()
			return
		}
		// S: fall through to an upgrade transaction.
		h.set.Inc(hL1DUpg)
	}
	h.missStep(t)
}

// missStep coalesces into the MSHR file and issues the directory request;
// it re-fires every 4 cycles while the MSHR file is full.
func (h *Hierarchy) missStep(t *txn) {
	core, line, write := t.core, t.line, t.write
	l1 := h.l1d[core]
	if l1.mshr.Pending(line) {
		l1.mshr.AddWaiter(line, write, t.done)
		h.freeTxn(t)
		return
	}
	if !l1.mshr.Allocate(line, write, t.done) {
		t.kind = kAccess
		t.step = 1
		h.eng.ScheduleCont(4, t)
		return
	}
	h.freeTxn(t)
	h.issueFill(core, line)
}

// issueFill starts the coherence transaction for the MSHR entry of line.
// Write intent is re-read at completion so coalesced upgrades work.
func (h *Hierarchy) issueFill(core int, line uint64) {
	l1 := h.l1d[core]
	t := h.allocTxn()
	t.kind = kFillDemand
	t.core = core
	t.line = line
	if l1.mshr.WantsWrite(line) {
		t.step = 1
		h.fetchExclusive(core, line, noc.Write, t)
		return
	}
	h.fetchShared(core, line, noc.Read, true, t)
}

// fillDemandStep handles a grant arriving at the L1D: step 0 is the GetS
// response (flag = exclusive grant), step 1 the GetM response.
func (h *Hierarchy) fillDemandStep(t *txn) {
	core, line := t.core, t.line
	if t.step == 1 {
		h.freeTxn(t)
		h.finishFill(core, line, StateM)
		return
	}
	l1 := h.l1d[core]
	if l1.mshr.WantsWrite(line) {
		if t.flag {
			// Granted E and a store coalesced in: silently M.
			h.freeTxn(t)
			h.finishFill(core, line, StateM)
			return
		}
		t.step = 1
		h.fetchExclusive(core, line, noc.Write, t)
		return
	}
	st := StateS
	if t.flag {
		st = StateE
	}
	h.freeTxn(t)
	h.finishFill(core, line, st)
}

func (h *Hierarchy) finishFill(core int, line uint64, state int8) {
	l1 := h.l1d[core]
	h.fillArray(l1, core, line, state, state == StateM, noc.WBRepl)
	l1.mshr.Complete(line, h.wake)
}

// IFetch fetches one instruction-cache line.
func (h *Hierarchy) IFetch(core int, pc uint64, done sim.Cont) {
	if done == nil {
		done = sim.Nop
	}
	h.set.Inc(hL1IAcc)
	t := h.allocTxn()
	t.kind = kIFetch
	t.core = core
	t.line = h.LineAddr(pc)
	t.done = done
	h.eng.ScheduleCont(sim.Time(h.cfg.L1ILatency), t)
}

func (h *Hierarchy) ifetchStep(t *txn) {
	core, line := t.core, t.line
	l1 := h.l1i[core]
	if t.step == 1 {
		// MSHR-full retry: re-run the access from the top.
		h.set.Inc(hL1IAcc)
		t.step = 0
		h.eng.ScheduleCont(sim.Time(h.cfg.L1ILatency), t)
		return
	}
	if l1.arr.Lookup(line, true) != nil {
		d := t.done
		h.freeTxn(t)
		d.Fire()
		return
	}
	h.set.Inc(hL1IMiss)
	if l1.mshr.Pending(line) {
		l1.mshr.AddWaiter(line, false, t.done)
		h.freeTxn(t)
		return
	}
	if !l1.mshr.Allocate(line, false, t.done) {
		h.eng.ScheduleCont(4, t)
		t.step = 1
		return
	}
	// Instruction lines are fetched shared-only (allowE=false), so the
	// directory never records an L1I as exclusive owner. The same node
	// becomes the grant continuation.
	t.kind = kFillIFetch
	t.step = 0
	t.done = nil
	h.fetchShared(core, line, noc.Ifetch, false, t)
}

// fillArray inserts or updates a line in an L1 array, handling the victim
// (write-back or replacement notice to its home directory).
func (h *Hierarchy) fillArray(l1 *l1cache, core int, line uint64, state int8, dirty bool, victimCat noc.Category) {
	if l := l1.arr.Peek(line); l != nil {
		// Upgrade in place (the line was present in S).
		l.State = state
		l.Dirty = l.Dirty || dirty
		return
	}
	ins, victim, evicted := l1.arr.Insert(line, state)
	ins.Dirty = dirty
	if !evicted {
		return
	}
	vline := victim.Tag
	home := h.homeOf(vline)
	switch victim.State {
	case StateM:
		h.set.Inc(hL1WB)
		d := h.allocTxn()
		d.kind = kDirPutM
		d.core = core
		d.line = vline
		h.mesh.SendCont(core, home.node, dataBytes, victimCat, d)
	case StateE, StateS:
		h.set.Inc(hL1Repl)
		d := h.allocTxn()
		d.kind = kDirPutS
		d.core = core
		d.line = vline
		// Only an E victim gives up ownership. An S victim's notice can
		// trail the core's own upgrade GetM, and must not strip the
		// ownership that GetM was just granted.
		d.flag = victim.State == StateE
		h.mesh.SendCont(core, home.node, ctrlBytes, victimCat, d)
	}
}

// prefetch runs the stride engine and issues shared fetches for predicted
// lines. Prefetch traffic is categorized as Write per the paper's Fig. 10
// grouping ("data cache writes ... include prefetch requests").
func (h *Hierarchy) prefetch(core int, pc, line uint64) {
	l1 := h.l1d[core]
	// Prefetches may use at most 3/4 of the MSHR file; the rest is
	// reserved so demand misses are never starved.
	limit := h.cfg.MSHREntries * 3 / 4
	for _, pline := range l1.pf.Observe(pc, line) {
		if l1.arr.Peek(pline) != nil || l1.mshr.Pending(pline) || l1.mshr.InFlight() >= limit {
			continue
		}
		h.set.Inc(hPrefIssued)
		l1.mshr.Allocate(pline, false, sim.Nop)
		t := h.allocTxn()
		t.kind = kFillPrefetch
		t.core = core
		t.line = pline
		h.fetchShared(core, pline, noc.Write, true, t)
	}
}

// fillPrefetchStep handles a prefetch grant: step 0 is the GetS response,
// step 1 the GetM response issued when a demand store coalesced in.
func (h *Hierarchy) fillPrefetchStep(t *txn) {
	core, line := t.core, t.line
	if t.step == 1 {
		h.freeTxn(t)
		h.finishFill(core, line, StateM)
		return
	}
	st := StateS
	if t.flag {
		st = StateE
	}
	l1 := h.l1d[core]
	if l1.mshr.WantsWrite(line) {
		// A demand store coalesced onto the prefetch.
		if t.flag {
			h.freeTxn(t)
			h.finishFill(core, line, StateM)
			return
		}
		t.step = 1
		h.fetchExclusive(core, line, noc.Write, t)
		return
	}
	h.freeTxn(t)
	h.finishFill(core, line, st)
}

// ---------------------------------------------------------------------------
// Directory transactions

// fetchShared obtains a readable copy of line for core. reqT fires at the
// core once data arrives with reqT.flag reporting an E grant (only possible
// when allowE and no other holder existed).
func (h *Hierarchy) fetchShared(core int, line uint64, cat noc.Category, allowE bool, reqT *txn) {
	home := h.homeOf(line)
	d := h.allocTxn()
	d.kind = kDirGetS
	d.core = core
	d.line = line
	d.cat = cat
	d.allowE = allowE
	d.ptxn = reqT
	h.mesh.SendCont(core, home.node, ctrlBytes, cat, d)
}

// fetchExclusive obtains a writable copy (or upgrade) of line for core.
func (h *Hierarchy) fetchExclusive(core int, line uint64, cat noc.Category, reqT *txn) {
	home := h.homeOf(line)
	d := h.allocTxn()
	d.kind = kDirGetM
	d.core = core
	d.line = line
	d.cat = cat
	d.ptxn = reqT
	h.mesh.SendCont(core, home.node, ctrlBytes, cat, d)
}

// dirGate acquires the line's transaction slot or queues t. A transaction
// rescheduled by release (gated) that loses the race to a newly arrived one
// goes back to the front of the queue, preserving service order.
func (h *Hierarchy) dirGate(t *txn) bool {
	s := h.homeOf(t.line)
	e := s.entry(t.line)
	if e.busy {
		if t.gated {
			t.next = e.wqHead
			e.wqHead = t
			if e.wqTail == nil {
				e.wqTail = t
			}
		} else {
			t.next = nil
			if e.wqTail == nil {
				e.wqHead = t
			} else {
				e.wqTail.next = t
			}
			e.wqTail = t
		}
		t.gated = false
		return false
	}
	e.busy = true
	t.gated = false
	return true
}

// release unbusies the entry, reschedules the next queued transaction, and
// garbage collects empty entries.
func (h *Hierarchy) release(s *l2slice, line uint64) {
	e := s.dir.Get(line)
	if e == nil {
		return
	}
	e.busy = false
	if e.wqHead != nil {
		n := e.wqHead
		e.wqHead = n.next
		if e.wqHead == nil {
			e.wqTail = nil
		}
		n.next = nil
		n.gated = true
		h.eng.ScheduleCont(0, n)
		return
	}
	if e.owner < 0 && e.sharers == 0 {
		s.dir.Delete(line)
	}
}

// dirGetSStep handles a read request at the home slice.
//
// Steps: 0 gate, 1 directory lookup after L2 latency, 2 forward-GetS at the
// owner, 3 request at the DRAM controller, 4 DRAM access done, 5 memory data
// back at the home slice.
func (h *Hierarchy) dirGetSStep(t *txn) {
	s := h.homeOf(t.line)
	req, line, cat := t.core, t.line, t.cat
	switch t.step {
	case 0:
		if !h.dirGate(t) {
			return
		}
		h.set.Inc(hL2Acc)
		t.step = 1
		h.eng.ScheduleCont(sim.Time(h.cfg.L2Latency), t)

	case 1:
		e := s.entry(line)
		switch {
		case e.owner >= 0 && e.owner != int32(req):
			// Forward to owner: owner downgrades to S, sends data
			// to the requester and dirty data back here.
			h.set.Inc(hFwdGetS)
			t.aux = int(e.owner)
			t.step = 2
			h.mesh.SendCont(s.node, t.aux, ctrlBytes, cat, t)

		case e.owner == int32(req):
			// Requester re-requests a line it owns (stale
			// replacement raced with this request): confirm.
			p := t.ptxn
			h.freeTxn(t)
			p.flag = true
			h.mesh.SendCont(s.node, req, ctrlBytes, cat, p)
			h.release(s, line)

		default:
			if s.arr.Lookup(line, true) != nil {
				h.set.Inc(hL2Hit)
				e.sharers |= 1 << uint(req)
				p := t.ptxn
				h.freeTxn(t)
				p.flag = false
				h.mesh.SendCont(s.node, req, dataBytes, cat, p)
				h.release(s, line)
				return
			}
			h.set.Inc(hL2Miss)
			h.memFetchStart(s, t, 3)
		}

	case 2:
		owner := t.aux
		h.ownerDowngrade(owner, line)
		p := t.ptxn
		p.flag = false
		h.mesh.SendCont(owner, req, dataBytes, cat, p)
		wb := h.allocTxn()
		wb.kind = kFwdWB
		wb.core = req
		wb.aux = owner
		wb.line = line
		h.freeTxn(t)
		h.mesh.SendCont(owner, s.node, dataBytes, noc.WBRepl, wb)

	case 3:
		t.step = 4
		h.dram.Controller(t.aux).Access(false, t)

	case 4:
		t.step = 5
		h.mesh.SendCont(h.dram.Node(t.aux), s.node, dataBytes, cat, t)

	case 5:
		h.l2Fill(s, line, false)
		e := s.entry(line)
		p := t.ptxn
		allowE := t.allowE
		h.freeTxn(t)
		if allowE && e.sharers == 0 && e.owner < 0 {
			e.owner = int32(req) // clean-exclusive grant
			p.flag = true
		} else {
			e.sharers |= 1 << uint(req)
			p.flag = false
		}
		h.mesh.SendCont(s.node, req, dataBytes, cat, p)
		h.release(s, line)
	}
}

// dirGetMStep handles a write/upgrade request at the home slice.
//
// Steps: 0 gate, 1 directory lookup after L2 latency, 2 forward-GetM at the
// owner, 3 owner data at the requester, 4 completion ack back at the home,
// 5 request at the DRAM controller, 6 DRAM access done, 7 memory data back
// at the home slice.
func (h *Hierarchy) dirGetMStep(t *txn) {
	s := h.homeOf(t.line)
	req, line, cat := t.core, t.line, t.cat
	switch t.step {
	case 0:
		if !h.dirGate(t) {
			return
		}
		h.set.Inc(hL2Acc)
		t.step = 1
		h.eng.ScheduleCont(sim.Time(h.cfg.L2Latency), t)

	case 1:
		e := s.entry(line)
		switch {
		case e.owner == int32(req):
			p := t.ptxn
			h.freeTxn(t)
			h.mesh.SendCont(s.node, req, ctrlBytes, cat, p)
			h.release(s, line)

		case e.owner >= 0:
			// Ownership transfer: current owner invalidates and
			// sends data directly to the requester.
			h.set.Inc(hFwdGetM)
			t.aux = int(e.owner)
			e.owner = int32(req)
			e.sharers = 0
			t.step = 2
			h.mesh.SendCont(s.node, t.aux, ctrlBytes, cat, t)

		case e.sharers&^(1<<uint(req)) != 0:
			// Invalidate every other sharer, then grant.
			others := e.sharers &^ (1 << uint(req))
			t.pending = bits.OnesCount64(others)
			t.flag = e.sharers&(1<<uint(req)) != 0
			h.set.Add(hDirInval, uint64(t.pending))
			for c := 0; c < h.cfg.Cores; c++ {
				if others&(1<<uint(c)) == 0 {
					continue
				}
				inv := h.allocTxn()
				inv.kind = kInvalGetM
				inv.aux = c
				inv.line = line
				inv.ptxn = t
				h.mesh.SendCont(s.node, c, ctrlBytes, noc.WBRepl, inv)
			}

		case e.sharers&(1<<uint(req)) != 0:
			// Requester is the only sharer: upgrade in place.
			e.owner = int32(req)
			e.sharers = 0
			h.grantM(s, t, true)

		default:
			// Nobody has it: serve from L2 or memory.
			if s.arr.Lookup(line, true) != nil {
				h.set.Inc(hL2Hit)
				e.owner = int32(req)
				p := t.ptxn
				h.freeTxn(t)
				h.mesh.SendCont(s.node, req, dataBytes, cat, p)
				h.release(s, line)
				return
			}
			h.set.Inc(hL2Miss)
			h.memFetchStart(s, t, 5)
		}

	case 2:
		h.invalidateL1(t.aux, line)
		t.step = 3
		h.mesh.SendCont(t.aux, req, dataBytes, cat, t)

	case 3:
		t.ptxn.Fire()
		t.ptxn = nil
		// Completion ack unblocks the entry.
		t.step = 4
		h.mesh.SendCont(req, s.node, ctrlBytes, noc.WBRepl, t)

	case 4:
		h.freeTxn(t)
		h.release(s, line)

	case 5:
		t.step = 6
		h.dram.Controller(t.aux).Access(false, t)

	case 6:
		t.step = 7
		h.mesh.SendCont(h.dram.Node(t.aux), s.node, dataBytes, cat, t)

	case 7:
		h.l2Fill(s, line, false)
		e := s.entry(line)
		e.owner = int32(req)
		p := t.ptxn
		h.freeTxn(t)
		h.mesh.SendCont(s.node, req, dataBytes, cat, p)
		h.release(s, line)
	}
}

// invalGetMStep runs one GetM sharer-invalidation strand: step 0 at the
// sharer, step 1 the ack back at the home slice. The last ack grants M.
func (h *Hierarchy) invalGetMStep(t *txn) {
	line := t.line
	if t.step == 0 {
		h.invalidateL1(t.aux, line)
		t.step = 1
		s := h.homeOf(line)
		h.mesh.SendCont(t.aux, s.node, ctrlBytes, noc.WBRepl, t)
		return
	}
	p := t.ptxn
	h.freeTxn(t)
	p.pending--
	if p.pending > 0 {
		return
	}
	s := h.homeOf(line)
	e := s.entry(line)
	e.owner = int32(p.core)
	e.sharers = 0
	h.grantM(s, p, p.flag)
}

// grantM sends write permission to the requester of t: a control message
// when it already holds the data (upgrade), the data itself otherwise.
// It consumes t.
func (h *Hierarchy) grantM(s *l2slice, t *txn, hadCopy bool) {
	size := dataBytes
	if hadCopy {
		size = ctrlBytes
	}
	req, line, cat, p := t.core, t.line, t.cat, t.ptxn
	h.freeTxn(t)
	h.mesh.SendCont(s.node, req, size, cat, p)
	h.release(s, line)
}

// ownerDowngrade moves an L1 line from M/E to S at a forward-GetS.
func (h *Hierarchy) ownerDowngrade(core int, line uint64) {
	if l := h.l1d[core].arr.Peek(line); l != nil {
		l.State = StateS
		l.Dirty = false
	}
}

// invalidateL1 drops a line from a core's L1D.
func (h *Hierarchy) invalidateL1(core int, line uint64) {
	h.l1d[core].arr.Invalidate(line)
	h.set.Inc(hL1Inval)
}

// ---------------------------------------------------------------------------
// L2 / memory

// l2Fill inserts (or refreshes) a line in the L2 slice, spilling a dirty
// victim to DRAM.
func (h *Hierarchy) l2Fill(s *l2slice, line uint64, dirty bool) {
	if l := s.arr.Peek(line); l != nil {
		l.Dirty = l.Dirty || dirty
		return
	}
	ins, victim, evicted := s.arr.Insert(line, StateS)
	ins.Dirty = dirty
	if evicted && victim.Dirty {
		h.set.Inc(hL2WB)
		h.memWrite(s, victim.Tag, noc.WBRepl)
	}
}

// memFetchStart begins a DRAM line read for t: the request travels to the
// controller's mesh node, performs the access, and the data returns to the
// home slice, where t resumes at step firstStep+2.
func (h *Hierarchy) memFetchStart(s *l2slice, t *txn, firstStep uint8) {
	ctrl := h.dram.ControllerFor(t.line)
	h.set.Inc(hDRAMRead)
	t.aux = ctrl
	t.step = firstStep
	h.mesh.SendCont(s.node, h.dram.Node(ctrl), ctrlBytes, t.cat, t)
}

// memWrite pushes a dirty line to DRAM (fire-and-forget).
func (h *Hierarchy) memWrite(s *l2slice, line uint64, cat noc.Category) {
	ctrl := h.dram.ControllerFor(line)
	h.set.Inc(hDRAMWrite)
	w := h.allocTxn()
	w.kind = kMemWrite
	w.aux = ctrl
	h.mesh.SendCont(s.node, h.dram.Node(ctrl), dataBytes, cat, w)
}

// ---------------------------------------------------------------------------
// DMA hooks (paper §2.1): used by the DMA controllers of the hybrid system.

// DMARead fetches one line on behalf of a dma-get issued by core. It snoops
// dirty data from an owning L1 without invalidating; otherwise it reads the
// L2 or memory. No cache is filled: the data goes to the SPM.
func (h *Hierarchy) DMARead(core int, line uint64, done sim.Cont) {
	if done == nil {
		done = sim.Nop
	}
	if h.tr != nil {
		done = h.tr.Span(telemetry.KCohDMARead, core, line, 0, done)
	}
	home := h.homeOf(line)
	t := h.allocTxn()
	t.kind = kDMARead
	t.core = core
	t.line = line
	t.cat = noc.DMA
	t.done = done
	h.mesh.SendCont(core, home.node, ctrlBytes, noc.DMA, t)
}

// dmaReadStep: 0 gate, 1 directory lookup after L2 latency, 2 snoop at the
// owner, 3 request at the DRAM controller, 4 DRAM access done, 5 memory
// data back at the home slice.
func (h *Hierarchy) dmaReadStep(t *txn) {
	home := h.homeOf(t.line)
	core, line := t.core, t.line
	switch t.step {
	case 0:
		if !h.dirGate(t) {
			return
		}
		h.set.Inc(hL2Acc)
		t.step = 1
		h.eng.ScheduleCont(sim.Time(h.cfg.L2Latency), t)

	case 1:
		e := home.entry(line)
		if e.owner >= 0 && e.owner != int32(core) {
			h.set.Inc(hDMASnoop)
			t.aux = int(e.owner)
			t.step = 2
			h.mesh.SendCont(home.node, t.aux, ctrlBytes, noc.DMA, t)
			return
		}
		if home.arr.Lookup(line, true) != nil {
			h.set.Inc(hL2Hit)
			d := t.done
			h.freeTxn(t)
			h.mesh.SendCont(home.node, core, dataBytes, noc.DMA, d)
			h.release(home, line)
			return
		}
		// L2 miss: fetch from memory and fill the L2 with a clean
		// copy. Re-traversals (iterative kernels re-mapping the same
		// read-only sections) then hit the L2, matching the LLC
		// residency the paper's applications establish in their init
		// phases.
		h.set.Inc(hL2Miss)
		h.memFetchStart(home, t, 3)

	case 2:
		// Owner supplies data and keeps its copy.
		owner := t.aux
		d := t.done
		h.freeTxn(t)
		h.mesh.SendCont(owner, core, dataBytes, noc.DMA, d)
		h.release(home, line)

	case 3:
		t.step = 4
		h.dram.Controller(t.aux).Access(false, t)

	case 4:
		t.step = 5
		h.mesh.SendCont(h.dram.Node(t.aux), home.node, dataBytes, noc.DMA, t)

	case 5:
		h.l2Fill(home, line, false)
		d := t.done
		h.freeTxn(t)
		h.mesh.SendCont(home.node, core, dataBytes, noc.DMA, d)
		h.release(home, line)
	}
}

// DMAWrite writes one line of SPM data back to memory on behalf of a
// dma-put issued by core, invalidating the line everywhere in the cache
// hierarchy (paper §2.1).
func (h *Hierarchy) DMAWrite(core int, line uint64, done sim.Cont) {
	if done == nil {
		done = sim.Nop
	}
	if h.tr != nil {
		done = h.tr.Span(telemetry.KCohDMAWrite, core, line, 0, done)
	}
	home := h.homeOf(line)
	t := h.allocTxn()
	t.kind = kDMAWrite
	t.core = core
	t.line = line
	t.done = done
	h.mesh.SendCont(core, home.node, dataBytes, noc.DMA, t)
}

// dmaWriteStep: 0 gate, 1 directory lookup after L2 latency and
// invalidation fan-out. The write itself finishes in dmaWriteFinish once
// every cached copy is gone.
func (h *Hierarchy) dmaWriteStep(t *txn) {
	switch t.step {
	case 0:
		if !h.dirGate(t) {
			return
		}
		h.set.Inc(hL2Acc)
		t.step = 1
		h.eng.ScheduleCont(sim.Time(h.cfg.L2Latency), t)

	case 1:
		home := h.homeOf(t.line)
		e := home.entry(t.line)
		targets := e.sharers
		if e.owner >= 0 {
			targets |= 1 << uint(e.owner)
		}
		if h.l1d[t.core].arr.Peek(t.line) != nil {
			targets |= 1 << uint(t.core)
		}
		if targets == 0 {
			h.dmaWriteFinish(t)
			return
		}
		t.pending = bits.OnesCount64(targets)
		h.set.Add(hDMAInval, uint64(t.pending))
		for c := 0; c < h.cfg.Cores; c++ {
			if targets&(1<<uint(c)) == 0 {
				continue
			}
			inv := h.allocTxn()
			inv.kind = kInvalDMA
			inv.aux = c
			inv.line = t.line
			inv.ptxn = t
			h.mesh.SendCont(home.node, c, ctrlBytes, noc.DMA, inv)
		}
	}
}

// invalDMAStep runs one dma-put invalidation strand: step 0 at the target,
// step 1 the ack back at the home slice. The last ack finishes the write.
func (h *Hierarchy) invalDMAStep(t *txn) {
	line := t.line
	if t.step == 0 {
		h.invalidateL1(t.aux, line)
		t.step = 1
		home := h.homeOf(line)
		h.mesh.SendCont(t.aux, home.node, ctrlBytes, noc.DMA, t)
		return
	}
	p := t.ptxn
	h.freeTxn(t)
	p.pending--
	if p.pending == 0 {
		h.dmaWriteFinish(p)
	}
}

// dmaWriteFinish clears the directory state, invalidates the L2 copy,
// writes memory, and acks the issuing DMAC. It consumes t.
func (h *Hierarchy) dmaWriteFinish(t *txn) {
	home := h.homeOf(t.line)
	core, line, d := t.core, t.line, t.done
	h.freeTxn(t)
	e := home.entry(line)
	e.owner = -1
	e.sharers = 0
	home.arr.Invalidate(line)
	h.memWrite(home, line, noc.DMA)
	h.mesh.SendCont(home.node, core, ctrlBytes, noc.DMA, d)
	h.release(home, line)
}

// ---------------------------------------------------------------------------
// Introspection for tests

// L1State returns the state of a line in a core's L1D (cache.Invalid if
// absent).
func (h *Hierarchy) L1State(core int, line uint64) int8 {
	if l := h.l1d[core].arr.Peek(line); l != nil {
		return l.State
	}
	return cache.Invalid
}

// DirOwner returns the directory-recorded owner of a line, or -1.
func (h *Hierarchy) DirOwner(line uint64) int {
	s := h.homeOf(line)
	if e := s.dir.Get(line); e != nil {
		return int(e.owner)
	}
	return -1
}

// DirSharers returns the directory-recorded sharer bit-vector of a line.
func (h *Hierarchy) DirSharers(line uint64) uint64 {
	s := h.homeOf(line)
	if e := s.dir.Get(line); e != nil {
		return e.sharers
	}
	return 0
}

// CheckInvariants validates protocol invariants against the actual L1
// contents; tests call it after draining the engine. It walks both sides:
// every directory entry must match the L1s, and every L1 line in M or E
// must be named owner by its directory entry (an entry with no owner and no
// sharers is collected, so only the L1 walk sees an owner it lost).
func (h *Hierarchy) CheckInvariants() error {
	var err error
	for li, s := range h.slices {
		s.dir.Each(func(line uint64, e *dirEntry) {
			if err != nil {
				return
			}
			if e.busy || e.wqHead != nil {
				err = fmt.Errorf("line %#x at slice %d still busy/queued after drain", line, li)
				return
			}
			if e.owner < 0 {
				return
			}
			if st := h.L1State(int(e.owner), line); st != StateM && st != StateE {
				err = fmt.Errorf("line %#x: dir owner %d but L1 state %d", line, e.owner, st)
			} else if e.sharers != 0 {
				err = fmt.Errorf("line %#x: owner %d with nonempty sharers %b", line, e.owner, e.sharers)
			}
		})
	}
	for c, l1 := range h.l1d {
		l1.arr.EachValid(func(l *cache.Line) {
			if err != nil || (l.State != StateM && l.State != StateE) {
				return
			}
			if owner := h.DirOwner(l.Tag); owner != c {
				err = fmt.Errorf("line %#x: core %d in state %d but dir owner %d", l.Tag, c, l.State, owner)
			}
		})
	}
	return err
}
