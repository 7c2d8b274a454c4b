// Package core implements the paper's primary contribution: the coherence
// protocol that lets guarded (potentially incoherent) memory accesses always
// reach the valid copy of their data in a hybrid memory system.
//
// Hardware structures (paper §3.1, Fig. 4):
//
//   - SPMDir (one per core): a CAM tracking the GM base address of every
//     chunk mapped to the core's SPM. The entry index equals the SPM buffer
//     number, so no RAM array is needed to recover the SPM address.
//   - Filter (one per core): a small fully-associative pseudoLRU CAM caching
//     GM base addresses known NOT to be mapped to any SPM — the fast path
//     for the overwhelmingly common case.
//   - FilterDir (distributed across the cache-directory slices): a CAM of
//     filtered base addresses plus a sharer bit-vector recording which cores
//     cache each one in their filter.
//
// Guarded accesses follow the casuistic of Fig. 5: (a) filter hit → served
// by the L1; (b) local SPMDir hit → diverted to the local SPM (loads discard
// the parallel cache access, stores also write the L1); (c) both miss and
// the FilterDir resolves "not mapped" (directly or via an all-NACK
// broadcast) → filter updated, buffered cache access used; (d) a remote
// SPMDir hits during the broadcast → the remote SPM serves the access and
// replies directly to the requesting core.
//
// Address decomposition uses the Base/Offset mask registers programmed by
// the SetBufSize instruction before each loop: every structure operates on
// base addresses, exploiting the equal-buffer-size invariant of fork-join
// parallelism (paper §3.1).
//
// Hot-path memory discipline: a guarded access is a pooled gtxn node whose
// three concurrent strands (buffered cache access, FilterDir resolution,
// remote-SPM data) are pre-wired sub-continuations; FilterDir transactions
// and protocol messages are pooled pnode state machines; the oracle and the
// per-base busy serialization are table.Tables with inline entries.
// Steady-state guarded traffic allocates nothing.
package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/spm"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/telemetry"
)

// Served identifies which storage satisfied a guarded access.
type Served int

const (
	// ServedCache means the L1/GM path provided the data (Fig. 5a/5c).
	ServedCache Served = iota
	// ServedLocalSPM means the access was diverted to the local SPM (5b).
	ServedLocalSPM
	// ServedRemoteSPM means a remote SPM served the access (5d).
	ServedRemoteSPM
)

func (s Served) String() string {
	switch s {
	case ServedCache:
		return "cache"
	case ServedLocalSPM:
		return "local-spm"
	case ServedRemoteSPM:
		return "remote-spm"
	default:
		return fmt.Sprintf("Served(%d)", int(s))
	}
}

// GM abstracts the coherent cache path used by guarded accesses
// (implemented by coherence.Hierarchy).
type GM interface {
	Read(core int, addr, pc uint64, done sim.Cont)
	Write(core int, addr, pc uint64, done sim.Cont)
}

// RecheckHook is the LSQ ordering re-check of §3.4: invoked when a guarded
// access hits in the local SPMDir and its effective address changes to an
// SPM address. The CPU model re-checks ordering against the new address and
// reports whether a pipeline flush was triggered.
type RecheckHook func(core int, spmAddr uint64, isStore bool) bool

// message sizes (bytes).
const (
	ctrlBytes = 8
	dataBytes = 72
)

// Interned counter handles (resolved once at package init).
var (
	protReg = stats.NewReg()

	hGuardedAcc  = protReg.Handle("guarded.accesses")
	hDiscarded   = protReg.Handle("guarded.l1_probe_discarded")
	hSPMDirLk    = protReg.Handle("spmdir.lookups")
	hSPMDirHit   = protReg.Handle("spmdir.hits")
	hSPMDirRHit  = protReg.Handle("spmdir.remote_hits")
	hSPMDirUpd   = protReg.Handle("spmdir.updates")
	hFilterLk    = protReg.Handle("filter.lookups")
	hFilterHit   = protReg.Handle("filter.hits")
	hFilterMiss  = protReg.Handle("filter.misses")
	hFilterIns   = protReg.Handle("filter.inserts")
	hFilterEvict = protReg.Handle("filter.evictions")
	hFilterInval = protReg.Handle("filter.invalidations")
	hFDirLk      = protReg.Handle("fdir.lookups")
	hFDirBcast   = protReg.Handle("fdir.broadcasts")
	hFDirEvict   = protReg.Handle("fdir.evictions")
	hLSQFlush    = protReg.Handle("lsq.flushes")
)

// Protocol is the chip-wide SPM coherence engine.
type Protocol struct {
	eng  *sim.Engine
	cfg  config.Config
	mesh *noc.Mesh
	gm   GM
	spms []*spm.SPM
	amap spm.AddressMap

	ideal bool

	// Per-core Base/Offset mask registers (§3.1).
	bufSize    []int
	baseMask   []uint64
	offsetMask []uint64

	spmdirs []*spmDir
	filters []*filter
	fdir    []*fdirSlice

	// oracle is the authoritative chunk-mapping table. The real protocol
	// never reads it to divert accesses (only its CAMs); it backs the
	// ideal-coherence configuration and invariant checks.
	oracle table.Table[mapping]

	recheck RecheckHook

	set *stats.Counters

	// tr, when set, wraps guarded accesses in trace spans. Nil on untraced
	// runs: one pointer check per access.
	tr *telemetry.Trace

	freeG *gtxn
	freeP *pnode
}

// SetTrace enables event tracing on the protocol.
func (p *Protocol) SetTrace(tr *telemetry.Trace) { p.tr = tr }

// spmDir is one core's SPMDir: entry index == buffer number (§3.1).
type spmDir struct {
	base  []uint64
	valid []bool
}

func newSPMDir(entries int) *spmDir {
	return &spmDir{base: make([]uint64, entries), valid: make([]bool, entries)}
}

// lookup CAM-searches for a GM base address.
func (d *spmDir) lookup(base uint64) (bufIdx int, ok bool) {
	for i, b := range d.base {
		if d.valid[i] && b == base {
			return i, true
		}
	}
	return 0, false
}

func (d *spmDir) set(bufIdx int, base uint64) {
	d.base[bufIdx] = base
	d.valid[bufIdx] = true
}

// filter is one core's fully-associative pseudoLRU filter CAM.
type filter struct {
	base []uint64
	use  []uint64 // recency stamps (pseudoLRU approximated by LRU here)
	tick uint64
}

func newFilter(entries int) *filter {
	return &filter{base: make([]uint64, entries), use: make([]uint64, entries)}
}

// lookup searches for base, refreshing recency on hit.
func (f *filter) lookup(base uint64) bool {
	for i, b := range f.base {
		if f.use[i] != 0 && b == base {
			f.tick++
			f.use[i] = f.tick
			return true
		}
	}
	return false
}

// insert adds base, evicting the least recent entry. It returns the evicted
// base and whether an eviction occurred.
func (f *filter) insert(base uint64) (evicted uint64, wasValid bool) {
	victim, oldest := 0, ^uint64(0)
	for i := range f.base {
		if f.use[i] == 0 {
			victim, oldest = i, 0
			break
		}
		if f.use[i] < oldest {
			victim, oldest = i, f.use[i]
		}
	}
	evicted, wasValid = f.base[victim], f.use[victim] != 0 && oldest != 0
	f.tick++
	f.base[victim] = base
	f.use[victim] = f.tick
	return evicted, wasValid
}

// invalidate removes base if present.
func (f *filter) invalidate(base uint64) bool {
	for i, b := range f.base {
		if f.use[i] != 0 && b == base {
			f.use[i] = 0
			return true
		}
	}
	return false
}

// valid counts live entries (tests).
func (f *filter) validCount() int {
	n := 0
	for _, u := range f.use {
		if u != 0 {
			n++
		}
	}
	return n
}

// fdirSlice is one distributed slice of the FilterDir: a CAM of base
// addresses with sharer bit-vectors, LRU-replaced. busy serializes
// transactions per base address.
type fdirSlice struct {
	node    int
	base    []uint64
	sharers []uint64
	use     []uint64
	tick    uint64
	busy    table.Table[busyQueue]
}

func newFDirSlice(node, entries int) *fdirSlice {
	s := &fdirSlice{
		node:    node,
		base:    make([]uint64, entries),
		sharers: make([]uint64, entries),
		use:     make([]uint64, entries),
	}
	s.busy.Init(16)
	return s
}

func (s *fdirSlice) find(base uint64) int {
	for i, b := range s.base {
		if s.use[i] != 0 && b == base {
			return i
		}
	}
	return -1
}

func (s *fdirSlice) touch(i int) {
	s.tick++
	s.use[i] = s.tick
}

// insert allocates an entry for base, returning a victim (base + sharers)
// when a valid entry had to be displaced.
func (s *fdirSlice) insert(base uint64, sharerBit uint64) (victimBase, victimSharers uint64, evicted bool) {
	victim, oldest := 0, ^uint64(0)
	for i := range s.base {
		if s.use[i] == 0 {
			victim, oldest = i, 0
			break
		}
		if s.use[i] < oldest {
			victim, oldest = i, s.use[i]
		}
	}
	if oldest != 0 {
		victimBase, victimSharers, evicted = s.base[victim], s.sharers[victim], true
	}
	s.tick++
	s.base[victim] = base
	s.sharers[victim] = sharerBit
	s.use[victim] = s.tick
	return victimBase, victimSharers, evicted
}

func (s *fdirSlice) remove(i int) { s.use[i] = 0; s.sharers[i] = 0 }

// busyQueue is the waiting deque of one busy FilterDir base: an entry in
// fdirSlice.busy exists while a transaction holds the base, and queued
// transactions wait on an intrusive deque of pnodes.
type busyQueue struct {
	head *pnode
	tail *pnode
}

func (q *busyQueue) push(n *pnode) {
	n.next = nil
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
}

// mapping is where the oracle places a GM base: a core and its SPM buffer.
type mapping struct {
	core   int32
	bufIdx int32
}

// oracleGet returns the oracle's placement of base.
func (p *Protocol) oracleGet(base uint64) (core, bufIdx int, ok bool) {
	if m := p.oracle.Get(base); m != nil {
		return int(m.core), int(m.bufIdx), true
	}
	return 0, 0, false
}

// New builds the protocol engine. spms must hold one SPM per core; amap is
// the chip's SPM address map. ideal selects the oracle coherence used as
// the Fig. 7 baseline.
func New(eng *sim.Engine, cfg config.Config, mesh *noc.Mesh, gm GM, spms []*spm.SPM, amap spm.AddressMap, ideal bool) *Protocol {
	if len(spms) != cfg.Cores {
		panic(fmt.Sprintf("core: %d SPMs for %d cores", len(spms), cfg.Cores))
	}
	p := &Protocol{
		eng:        eng,
		cfg:        cfg,
		mesh:       mesh,
		gm:         gm,
		spms:       spms,
		amap:       amap,
		ideal:      ideal,
		bufSize:    make([]int, cfg.Cores),
		baseMask:   make([]uint64, cfg.Cores),
		offsetMask: make([]uint64, cfg.Cores),
		set:        protReg.NewCounters("spmcoh"),
	}
	p.oracle.Init(64)
	perSlice := cfg.FilterDirEntries / cfg.Cores
	if perSlice <= 0 {
		perSlice = 1
	}
	for i := 0; i < cfg.Cores; i++ {
		p.spmdirs = append(p.spmdirs, newSPMDir(cfg.SPMDirEntries))
		p.filters = append(p.filters, newFilter(cfg.FilterEntries))
		p.fdir = append(p.fdir, newFDirSlice(i, perSlice))
		p.SetBufSize(i, cfg.SPMSize) // sane default: one buffer
	}
	return p
}

// SetRecheckHook installs the LSQ re-check callback (§3.4).
func (p *Protocol) SetRecheckHook(h RecheckHook) { p.recheck = h }

// Stats returns the protocol counter set.
func (p *Protocol) Stats() *stats.Counters { return p.set }

// SetBufSize programs core's Base/Offset mask registers for buffer size
// bytes (a power of two). Emitted by the runtime before each loop (§3.1).
func (p *Protocol) SetBufSize(core, bytes int) {
	if bytes <= 0 || bytes&(bytes-1) != 0 {
		panic(fmt.Sprintf("core: buffer size %d not a power of two", bytes))
	}
	if n := p.cfg.SPMSize / bytes; n > p.cfg.SPMDirEntries {
		panic(fmt.Sprintf("core: %d buffers exceed %d SPMDir entries", n, p.cfg.SPMDirEntries))
	}
	p.bufSize[core] = bytes
	p.offsetMask[core] = uint64(bytes - 1)
	p.baseMask[core] = ^p.offsetMask[core]
}

// BufSize returns core's configured buffer size.
func (p *Protocol) BufSize(core int) int { return p.bufSize[core] }

// fdirHome returns the FilterDir slice owning a base address. Bases are
// buffer-size aligned, so interleave on the chunk number (fork-join code
// uses one buffer size chip-wide, §3.1).
func (p *Protocol) fdirHome(base uint64) *fdirSlice {
	return p.fdir[(base/uint64(p.bufSize[0]))%uint64(len(p.fdir))]
}

// ---------------------------------------------------------------------------
// Pooled transaction nodes

// gtxn is one pooled guarded-access transaction. Its three concurrent
// strands in the filter-miss case — the buffered cache access, the FilterDir
// resolution, and the remote-SPM data — are pre-wired sub-continuations, so
// the whole Fig. 5 casuistic runs without allocating. refs counts strands in
// flight: the node recycles when the access completed and every strand fired
// (a discarded buffered load can complete after the access itself).
type gtxn struct {
	p    *Protocol
	next *gtxn

	done  sim.Cont     // hot path: Served is irrelevant to the CPU
	doneS func(Served) // compat path (tests): receives which storage served

	kind uint8
	step uint8
	refs int8

	isStore bool
	// Filter-miss resolution state (the captured variables of Fig. 5c/5d).
	resolved      bool
	completed     bool
	cacheDone     bool
	remoteArrived bool
	mappedStaged  bool // resolution outcome, read when the response arrives
	resolution    Served

	core int
	aux  int // remote core (ideal path)
	base uint64

	cacheSub  subCont
	resSub    subCont
	remoteSub subCont
}

// gtxn kinds for the main continuation.
const (
	gCache       uint8 = iota // gm access completion serves the access
	gLocal                    // local SPM access completion
	gIdealRemote              // oracle remote-SPM round trip
	gMiss                     // filter miss: only sub-strands fire
)

// sub-strand kinds.
const (
	subCache uint8 = iota
	subRes
	subRemote
)

// subCont adapts one strand of a gtxn to sim.Cont without allocation.
type subCont struct {
	t    *gtxn
	kind uint8
}

func (s *subCont) Fire() { s.t.subFire(s.kind) }

func (p *Protocol) allocGtxn() *gtxn {
	t := p.freeG
	if t != nil {
		p.freeG = t.next
		t.next = nil
		t.kind, t.step, t.refs = 0, 0, 0
		t.resolved, t.completed, t.cacheDone = false, false, false
		t.remoteArrived, t.mappedStaged = false, false
		t.resolution = ServedCache
	} else {
		t = &gtxn{p: p}
		t.cacheSub = subCont{t: t, kind: subCache}
		t.resSub = subCont{t: t, kind: subRes}
		t.remoteSub = subCont{t: t, kind: subRemote}
	}
	return t
}

func (p *Protocol) freeGtxn(t *gtxn) {
	t.done = nil
	t.doneS = nil
	t.next = p.freeG
	p.freeG = t
}

// serve fires the completion callback and recycles single-strand nodes.
func (t *gtxn) serve(s Served) {
	p := t.p
	d, ds := t.done, t.doneS
	p.freeGtxn(t)
	if ds != nil {
		ds(s)
	} else {
		d.Fire()
	}
}

// Fire advances the main continuation (hit paths and the ideal protocol).
func (t *gtxn) Fire() {
	p := t.p
	switch t.kind {
	case gCache:
		t.serve(ServedCache)
	case gLocal:
		t.serve(ServedLocalSPM)
	case gIdealRemote:
		switch t.step {
		case 0:
			t.step = 1
			p.spms[t.aux].RemoteAccess(t.isStore, t)
		case 1:
			size := dataBytes
			if t.isStore {
				size = ctrlBytes
			}
			t.step = 2
			p.mesh.SendCont(t.aux, t.core, size, noc.CohProt, t)
		case 2:
			t.serve(ServedRemoteSPM)
		}
	default:
		panic(fmt.Sprintf("core: bad gtxn kind %d", t.kind))
	}
}

// subFire handles one filter-miss strand completing.
func (t *gtxn) subFire(k uint8) {
	p := t.p
	t.refs--
	switch k {
	case subCache:
		t.cacheDone = true
	case subRes:
		t.resolved = true
		if t.mappedStaged {
			t.resolution = ServedRemoteSPM
		} else {
			t.resolution = ServedCache
			p.filterInsert(t.core, t.base)
		}
	case subRemote:
		t.remoteArrived = true
		t.resolved = true
		t.resolution = ServedRemoteSPM
	}
	t.finishIfReady()
	if t.refs == 0 && t.completed {
		p.freeGtxn(t)
	}
}

// finishIfReady applies the completion rules of Fig. 5c/5d: a cache
// resolution retires when the buffered access is done; a remote-SPM
// resolution retires on data arrival (stores also wait for the parallel L1
// write; loads discard it without waiting).
func (t *gtxn) finishIfReady() {
	if !t.resolved || t.completed {
		return
	}
	switch t.resolution {
	case ServedCache:
		if t.cacheDone {
			t.completed = true
			t.fire(ServedCache)
		}
	case ServedRemoteSPM:
		if t.remoteArrived && (t.cacheDone || !t.isStore) {
			t.completed = true
			t.fire(ServedRemoteSPM)
		}
	}
}

func (t *gtxn) fire(s Served) {
	if t.doneS != nil {
		t.doneS(s)
		return
	}
	t.done.Fire()
}

// pnode is a pooled protocol-message node: FilterDir transactions, SPMDir
// broadcast probes, filter invalidations and eviction notices.
type pnode struct {
	p      *Protocol
	next   *pnode
	gt     *gtxn
	parent *pnode
	kind   uint8
	step   uint8
	flag   bool // isStore
	mapped bool
	core   int // requesting core
	aux    int // probe / invalidation target core
	base   uint64
	pend   int
	anyMap bool
}

const (
	pkNotify      uint8 = iota // dma-get map notice at the FilterDir home
	pkFInv                     // filter invalidation at one core
	pkEvict                    // filter-eviction sharer clear at the home
	pkResolve                  // FilterDir resolve transaction (Fig. 6b)
	pkBroadcast                // one SPMDir probe strand (step 0 probe, 1 ack)
	pkRemoteServe              // remote SPM served; data/ack to the requester
)

func (p *Protocol) allocPnode() *pnode {
	n := p.freeP
	if n != nil {
		p.freeP = n.next
		*n = pnode{p: p}
	} else {
		n = &pnode{p: p}
	}
	return n
}

func (p *Protocol) freePnode(n *pnode) {
	n.gt = nil
	n.parent = nil
	n.next = p.freeP
	p.freeP = n
}

func (n *pnode) Fire() {
	p := n.p
	switch n.kind {
	case pkNotify:
		home := p.fdirHome(n.base)
		base := n.base
		p.freePnode(n)
		p.set.Inc(hFDirLk)
		i := home.find(base)
		if i < 0 {
			return // nobody filters it; nothing to do
		}
		sharers := home.sharers[i]
		home.remove(i)
		p.invalidateFilters(home.node, base, sharers)
	case pkFInv:
		aux, base := n.aux, n.base
		p.freePnode(n)
		if p.filters[aux].invalidate(base) {
			p.set.Inc(hFilterInval)
		}
	case pkEvict:
		home := p.fdirHome(n.base)
		base, core := n.base, n.core
		p.freePnode(n)
		if i := home.find(base); i >= 0 {
			home.sharers[i] &^= 1 << uint(core)
		}
	case pkResolve:
		p.resolveStep(n)
	case pkBroadcast:
		p.broadcastStep(n)
	case pkRemoteServe:
		gt, c, req, isStore := n.gt, n.aux, n.core, n.flag
		p.freePnode(n)
		size := dataBytes
		if isStore {
			size = ctrlBytes // store ack
		}
		p.mesh.SendCont(c, req, size, noc.CohProt, &gt.remoteSub)
	default:
		panic(fmt.Sprintf("core: bad pnode kind %d", n.kind))
	}
}

// ---------------------------------------------------------------------------
// Tracking SPM contents (paper §3.3)

// NotifyMap implements dma.MapNotifier: a dma-get maps the chunk at gmAddr
// into core's SPM buffer at spmAddr. The SPMDir is updated and every filter
// caching the base address is invalidated through the FilterDir (Fig. 6a).
func (p *Protocol) NotifyMap(core int, gmAddr, spmAddr uint64, bytes int) {
	base := gmAddr & p.baseMask[core]
	bufIdx := int(p.amap.Offset(spmAddr)) / p.bufSize[core]

	// Reusing a buffer unmaps its previous chunk.
	d := p.spmdirs[core]
	if d.valid[bufIdx] {
		old := d.base[bufIdx]
		if c, b, ok := p.oracleGet(old); ok && c == core && b == bufIdx {
			p.oracle.Delete(old)
		}
	}
	// Array sections are private to one thread (fork-join, §2.2), so a
	// chunk lives in at most one SPM. Re-mapping by another core migrates
	// it: the previous mapper's SPMDir entry is cleared.
	if pc, pb, ok := p.oracleGet(base); ok && pc != core {
		pd := p.spmdirs[pc]
		if pd.valid[pb] && pd.base[pb] == base {
			pd.valid[pb] = false
		}
	}
	d.set(bufIdx, base)
	m, _ := p.oracle.Put(base)
	*m = mapping{core: int32(core), bufIdx: int32(bufIdx)}
	p.set.Inc(hSPMDirUpd)

	if p.ideal {
		return // oracle coherence: no structures to maintain
	}

	// Fig. 6a: invalidation message to the FilterDir home, which fans out
	// to every core in the sharer list.
	home := p.fdirHome(base)
	n := p.allocPnode()
	n.kind = pkNotify
	n.base = base
	p.mesh.SendCont(core, home.node, ctrlBytes, noc.CohProt, n)
}

// invalidateFilters sends filter-invalidation messages from the FilterDir
// node to every sharer core.
func (p *Protocol) invalidateFilters(fromNode int, base uint64, sharers uint64) {
	for c := 0; c < p.cfg.Cores; c++ {
		if sharers&(1<<uint(c)) == 0 {
			continue
		}
		n := p.allocPnode()
		n.kind = pkFInv
		n.aux = c
		n.base = base
		p.mesh.SendCont(fromNode, c, ctrlBytes, noc.CohProt, n)
	}
}

// Mapped reports where a GM base address is currently mapped (oracle view;
// used by tests, the ideal protocol, and assertions).
func (p *Protocol) Mapped(base uint64) (core int, ok bool) {
	core, _, ok = p.oracleGet(base)
	return core, ok
}

// ---------------------------------------------------------------------------
// Guarded accesses (paper §3.2, Fig. 5)

// GuardedAccess executes a potentially incoherent access for core at GM
// virtual address addr. done receives which storage served it. Callers that
// do not care which storage served the access should use GuardedAccessCont.
func (p *Protocol) GuardedAccess(core int, addr, pc uint64, isStore bool, done func(Served)) {
	t := p.allocGtxn()
	t.core = core
	t.isStore = isStore
	t.doneS = done
	p.guarded(t, addr, pc)
}

// GuardedAccessCont is the allocation-free fast path: done fires when the
// access completes, whichever storage served it.
func (p *Protocol) GuardedAccessCont(core int, addr, pc uint64, isStore bool, done sim.Cont) {
	if done == nil {
		done = sim.Nop
	}
	if p.tr != nil {
		var st uint64
		if isStore {
			st = 1
		}
		done = p.tr.Span(telemetry.KGuarded, core, addr, st, done)
	}
	t := p.allocGtxn()
	t.core = core
	t.isStore = isStore
	t.done = done
	p.guarded(t, addr, pc)
}

func (p *Protocol) guarded(t *gtxn, addr, pc uint64) {
	core, isStore := t.core, t.isStore
	p.set.Inc(hGuardedAcc)
	base := addr & p.baseMask[core]
	off := addr & p.offsetMask[core]
	t.base = base

	if p.ideal {
		p.idealAccess(t, addr, pc, base, off)
		return
	}

	// The filter and SPMDir CAMs are probed in parallel with the normal
	// TLB+L1 path (their latency hides behind it).
	p.set.Inc(hSPMDirLk)
	p.set.Inc(hFilterLk)

	if bufIdx, ok := p.spmdirs[core].lookup(base); ok {
		// Fig. 5b — mapped to the local SPM.
		p.set.Inc(hSPMDirHit)
		p.localSPMAccess(t, bufIdx, off, pc, addr)
		return
	}

	if p.filters[core].lookup(base) {
		// Fig. 5a — known not mapped anywhere: the L1 serves it.
		p.set.Inc(hFilterHit)
		t.kind = gCache
		p.cacheAccess(core, addr, pc, isStore, t)
		return
	}

	// Fig. 5c/5d — both CAMs missed: ask the FilterDir. The cache access
	// proceeds in parallel and is buffered in the MSHR (loads) until the
	// resolution arrives.
	p.set.Inc(hFilterMiss)
	t.kind = gMiss
	t.refs = 2 // cache strand + resolution strand
	p.cacheAccess(core, addr, pc, isStore, &t.cacheSub)

	home := p.fdirHome(base)
	r := p.allocPnode()
	r.kind = pkResolve
	r.gt = t
	r.core = core
	r.base = base
	r.flag = isStore
	p.mesh.SendCont(core, home.node, ctrlBytes, noc.CohProt, r)
}

// localSPMAccess is Fig. 5b: divert to the local SPM. The parallel L1 access
// result is discarded for loads; guarded stores always also write the L1
// (they may alias a read-only SPM buffer that will never be written back).
func (p *Protocol) localSPMAccess(t *gtxn, bufIdx int, off, pc, gmAddr uint64) {
	core, isStore := t.core, t.isStore
	spmAddr := p.amap.AddrFor(core, uint64(bufIdx)*uint64(p.bufSize[core])+off)
	if p.recheck != nil && p.recheck(core, spmAddr, isStore) {
		p.set.Inc(hLSQFlush)
	}
	p.set.Inc(hDiscarded)
	if isStore {
		p.cacheAccess(core, gmAddr, pc, true, sim.Nop)
	}
	t.kind = gLocal
	p.spms[core].Access(isStore, t)
}

// cacheAccess issues the normal coherent GM access for a guarded
// instruction.
func (p *Protocol) cacheAccess(core int, addr, pc uint64, isStore bool, done sim.Cont) {
	if isStore {
		p.gm.Write(core, addr, pc, done)
	} else {
		p.gm.Read(core, addr, pc, done)
	}
}

// filterInsert caches "base is unmapped" in core's filter, notifying the
// FilterDir when a valid entry is displaced (§3.3).
func (p *Protocol) filterInsert(core int, base uint64) {
	evicted, wasValid := p.filters[core].insert(base)
	p.set.Inc(hFilterIns)
	if !wasValid {
		return
	}
	p.set.Inc(hFilterEvict)
	home := p.fdirHome(evicted)
	n := p.allocPnode()
	n.kind = pkEvict
	n.core = core
	n.base = evicted
	p.mesh.SendCont(core, home.node, ctrlBytes, noc.CohProt, n)
}

// resolveStep runs the FilterDir side of a filter miss (Fig. 6b). The node
// arrives at the home slice, serializes on the base, and either ACKs
// directly (FilterDir hit: not mapped) or broadcasts to every SPMDir.
func (p *Protocol) resolveStep(n *pnode) {
	home := p.fdirHome(n.base)
	req, base := n.core, n.base

	// Serialize transactions on the same base at the home slice.
	if q, fresh := home.busy.Put(base); !fresh {
		q.push(n)
		return
	}

	p.set.Inc(hFDirLk)
	if i := home.find(base); i >= 0 {
		// FilterDir hit: not mapped to any SPM. Add sharer, ACK.
		home.sharers[i] |= 1 << uint(req)
		home.touch(i)
		gt := n.gt
		p.freePnode(n)
		gt.mappedStaged = false
		p.mesh.SendCont(home.node, req, ctrlBytes, noc.CohProt, &gt.resSub)
		p.releaseBusy(home, base)
		return
	}

	// FilterDir miss: broadcast to every core's SPMDir (Fig. 6b step 3).
	p.set.Inc(hFDirBcast)
	n.pend = p.cfg.Cores
	n.anyMap = false
	for c := 0; c < p.cfg.Cores; c++ {
		bc := p.allocPnode()
		bc.kind = pkBroadcast
		bc.parent = n
		bc.gt = n.gt
		bc.core = req
		bc.aux = c
		bc.base = base
		bc.flag = n.flag
		p.mesh.SendCont(home.node, c, ctrlBytes, noc.CohProt, bc)
	}
}

// releaseBusy unlocks base at the home slice and reschedules every deferred
// transaction; they re-enter resolveStep and re-serialize in order.
func (p *Protocol) releaseBusy(home *fdirSlice, base uint64) {
	q, _ := home.busy.Delete(base)
	for n := q.head; n != nil; {
		nx := n.next
		n.next = nil
		p.eng.ScheduleCont(0, n)
		n = nx
	}
}

// broadcastStep runs one SPMDir probe strand: step 0 probes core aux, step 1
// delivers the ack at the home slice; the last ack resolves the transaction.
func (p *Protocol) broadcastStep(n *pnode) {
	home := p.fdirHome(n.base)
	if n.step == 0 {
		c, base, req, isStore := n.aux, n.base, n.core, n.flag
		p.set.Inc(hSPMDirLk)
		_, ok := p.spmdirs[c].lookup(base)
		if ok {
			// Normally a remote core; c == req can happen only when
			// a dma-get mapped the chunk locally while this access
			// was in flight — the local SPM then serves it through
			// the same path.
			p.set.Inc(hSPMDirRHit)
			// Fig. 5d: this SPM serves the access directly and
			// responds to the requesting core.
			rs := p.allocPnode()
			rs.kind = pkRemoteServe
			rs.gt = n.gt
			rs.core = req
			rs.aux = c
			rs.flag = isStore
			n.gt.refs++
			p.spms[c].RemoteAccess(isStore, rs)
		}
		// ...and ACK the probe result to the FilterDir.
		n.step = 1
		n.mapped = ok
		p.mesh.SendCont(c, home.node, ctrlBytes, noc.CohProt, n)
		return
	}

	parent := n.parent
	mapped := n.mapped
	p.freePnode(n)
	if mapped {
		parent.anyMap = true
	}
	parent.pend--
	if parent.pend > 0 {
		return
	}

	req, base, gt, anyMap := parent.core, parent.base, parent.gt, parent.anyMap
	p.freePnode(parent)
	if anyMap {
		// Mapped to a remote SPM: NACK the requester (no filter
		// update); the remote core serves the access.
		gt.mappedStaged = true
		p.mesh.SendCont(home.node, req, ctrlBytes, noc.CohProt, &gt.resSub)
		p.releaseBusy(home, base)
		return
	}
	// Nobody maps it: insert into the FilterDir with the requester as
	// first sharer; evictions invalidate filters.
	vb, vs, evicted := home.insert(base, 1<<uint(req))
	if evicted {
		p.set.Inc(hFDirEvict)
		p.invalidateFilters(home.node, vb, vs)
	}
	gt.mappedStaged = false
	p.mesh.SendCont(home.node, req, ctrlBytes, noc.CohProt, &gt.resSub)
	p.releaseBusy(home, base)
}

// idealAccess resolves a guarded access with oracle knowledge: no CAMs, no
// protocol traffic (paper §5.3's "ideal coherence" baseline). Data that
// physically lives in a remote SPM still has to cross the NoC.
func (p *Protocol) idealAccess(t *gtxn, addr, pc, base, off uint64) {
	core, isStore := t.core, t.isStore
	ocore, obuf, ok := p.oracleGet(base)
	switch {
	case !ok:
		t.kind = gCache
		p.cacheAccess(core, addr, pc, isStore, t)
	case ocore == core:
		if p.recheck != nil && p.recheck(core, p.amap.AddrFor(core, uint64(obuf)*uint64(p.bufSize[core])+off), isStore) {
			p.set.Inc(hLSQFlush)
		}
		if isStore {
			p.cacheAccess(core, addr, pc, true, sim.Nop)
		}
		t.kind = gLocal
		p.spms[core].Access(isStore, t)
	default:
		t.kind = gIdealRemote
		t.aux = ocore
		p.mesh.SendCont(core, ocore, ctrlBytes, noc.CohProt, t)
		if isStore {
			p.cacheAccess(core, addr, pc, true, sim.Nop)
		}
	}
}

// ---------------------------------------------------------------------------
// Derived statistics

// FilterHitRatio returns hits/(hits+misses) over filter lookups that reached
// the filter (i.e. SPMDir misses) — the quantity of paper Fig. 8. Returns 1
// when the filter was never exercised (e.g. SP has no guarded accesses).
func (p *Protocol) FilterHitRatio() float64 {
	h := p.set.Val(hFilterHit)
	m := p.set.Val(hFilterMiss)
	if h+m == 0 {
		return 1
	}
	return float64(h) / float64(h+m)
}

// FilterValidCount returns live entries in core's filter (tests).
func (p *Protocol) FilterValidCount(core int) int { return p.filters[core].validCount() }

// SPMDirEntry exposes core's SPMDir entry bufIdx (tests).
func (p *Protocol) SPMDirEntry(core, bufIdx int) (base uint64, valid bool) {
	d := p.spmdirs[core]
	return d.base[bufIdx], d.valid[bufIdx]
}
