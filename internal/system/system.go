// Package system assembles complete machines — cache-based, hybrid with
// ideal coherence, or hybrid with the paper's protocol — runs benchmarks on
// them, and collects the measurements every figure of the evaluation needs.
package system

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/spm"
	"repro/internal/telemetry"
)

// stackBase returns core c's stack region (thread-private, far from the
// workload arrays and the SPM range).
func stackBase(c int) uint64 { return 0x7F00_0000 + uint64(c)*(1<<20) }

// Machine is one fully wired simulated manycore plus the workload running
// on it.
type Machine struct {
	Eng  *sim.Engine
	Cfg  config.Config
	Mesh *noc.Mesh
	Dram *mem.System
	Hier *coherence.Hierarchy

	// Hybrid-only components (nil / empty on the cache-based machine).
	SPMs     []*spm.SPM
	AMap     spm.AddressMap
	Protocol *core.Protocol
	DMACs    []*dma.Controller

	Cluster *cpu.Cluster

	freeSpmToks *spmTok

	bench *compiler.Benchmark

	// rec, when attached, observes the run (counter sampling and/or event
	// tracing). Nil on ordinary runs — the whole telemetry layer then costs
	// one nil check here plus one per instrumented component site.
	rec *telemetry.Recorder
}

// Attach wires an observer into the machine: the recorder's trace (if any)
// into every traced component, and one probe per counter of every stats
// surface the machine exposes. Call between Build and Run; RunContext then
// drives the recorder's sampling lifecycle.
func (m *Machine) Attach(rec *telemetry.Recorder) {
	m.rec = rec
	rec.Bind(m.Eng)
	if tr := rec.Tracer(); tr != nil {
		m.Mesh.SetTrace(tr)
		m.Hier.SetTrace(tr)
		m.Cluster.SetTrace(tr)
		if m.Protocol != nil {
			m.Protocol.SetTrace(tr)
		}
		for _, d := range m.DMACs {
			d.SetTrace(tr)
		}
	}
	rec.AddProbe("core.retired", m.Cluster.Retired)
	rec.AddProbe("core.flushes", m.Cluster.Flushes)
	for c := noc.Category(0); c < noc.NumCategories; c++ {
		c := c
		rec.AddProbe("noc.pkts."+c.String(), func() uint64 { return m.Mesh.Packets(c) })
	}
	rec.AddProbe("noc.flithops", m.Mesh.TotalFlitHops)
	rec.AddCounters("coherence", m.Hier.Stats())
	if m.Protocol != nil {
		rec.AddCounters("protocol", m.Protocol.Stats())
	}
	if len(m.DMACs) > 0 {
		rec.AddProbe("dma.lines", func() uint64 {
			var t uint64
			for _, d := range m.DMACs {
				t += d.LineTransfers()
			}
			return t
		})
	}
	if len(m.SPMs) > 0 {
		rec.AddProbe("spm.accesses", func() uint64 {
			var t uint64
			for _, s := range m.SPMs {
				t += s.TotalAccesses()
			}
			return t
		})
	}
}

// CounterSnapshot returns every interned counter the machine exposes, keyed
// with the same prefixed names the telemetry probes use ("coherence.l2.misses",
// "protocol.filter.evictions", "dma.lines", "spm.accesses"), so the analysis
// rules and the timeline series read one vocabulary. It is a read-only
// post-run summary: call it after Run; it never perturbs simulated behavior.
func (m *Machine) CounterSnapshot() map[string]uint64 {
	out := make(map[string]uint64, 64)
	hs := m.Hier.Stats()
	for _, name := range hs.AllNames() {
		out["coherence."+name] = hs.Get(name)
	}
	if m.Protocol != nil {
		ps := m.Protocol.Stats()
		for _, name := range ps.AllNames() {
			out["protocol."+name] = ps.Get(name)
		}
	}
	if len(m.DMACs) > 0 {
		var t uint64
		for _, d := range m.DMACs {
			t += d.LineTransfers()
		}
		out["dma.lines"] = t
	}
	if len(m.SPMs) > 0 {
		var t uint64
		for _, s := range m.SPMs {
			t += s.TotalAccesses()
		}
		out["spm.accesses"] = t
	}
	return out
}

// memControllerNodes spreads the memory controllers over two interior mesh
// rows so each controller's router has full link fan-out and DMA bursts do
// not concentrate on corner links.
func memControllerNodes(cfg config.Config) []int {
	w, h := cfg.MeshWidth, cfg.MeshHeight
	rows := []int{h / 4, 3 * h / 4}
	if rows[0] == rows[1] {
		rows = rows[:1]
	}
	var nodes []int
	seen := map[int]bool{}
	perRow := (cfg.MemControllers + len(rows) - 1) / len(rows)
	for _, y := range rows {
		for i := 0; i < perRow && len(nodes) < cfg.MemControllers; i++ {
			x := (i*w + w/2) / perRow % w
			n := y*w + x
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	for i := 0; len(nodes) < cfg.MemControllers; i++ {
		if !seen[i] {
			seen[i] = true
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// Build wires a machine for cfg and generates per-core programs for bench.
func Build(cfg config.Config, bench *compiler.Benchmark, seed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	mesh := noc.NewBW(eng, cfg.MeshWidth, cfg.MeshHeight, cfg.FlitBytes, cfg.LinkBandwidth, cfg.LinkLatency, cfg.RouterLatency)
	dram := mem.NewSystem(eng, memControllerNodes(cfg), cfg.LineSize, cfg.MemLatency, cfg.MemCyclesPerLn)
	hier := coherence.New(eng, cfg, mesh, dram)

	m := &Machine{Eng: eng, Cfg: cfg, Mesh: mesh, Dram: dram, Hier: hier, bench: bench}

	if cfg.HasSPM() {
		m.AMap = spm.NewAddressMap(cfg.Cores, cfg.SPMSize)
		for i := 0; i < cfg.Cores; i++ {
			m.SPMs = append(m.SPMs, spm.New(eng, cfg.SPMLatency))
		}
		m.Protocol = core.New(eng, cfg, mesh, hier, m.SPMs, m.AMap, cfg.IdealCoherence())
		var notifier dma.MapNotifier = m.Protocol
		for i := 0; i < cfg.Cores; i++ {
			m.DMACs = append(m.DMACs, dma.NewController(eng, i, hier, m.SPMs[i], notifier,
				cfg.LineSize, cfg.DMACmdQueue, cfg.DMABusQueue, cfg.DMALineCycles))
		}
	}

	programs := make([]isa.Program, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		programs[c] = compiler.Generate(bench, genOptions(cfg, m.AMap, c, seed))
	}
	m.Cluster = cpu.NewCluster(eng, cfg, m, programs)
	if m.Protocol != nil {
		m.Protocol.SetRecheckHook(m.Cluster.RecheckHook())
	}
	return m, nil
}

// genOptions is the code-generation input for core c of the machine cfg
// describes; amap is unused on the cache-based machine.
func genOptions(cfg config.Config, amap spm.AddressMap, c int, seed uint64) compiler.GenOptions {
	opt := compiler.GenOptions{
		Cores:         cfg.Cores,
		Core:          c,
		Hybrid:        cfg.HasSPM(),
		SPMSize:       cfg.SPMSize,
		SPMDirEntries: cfg.SPMDirEntries,
		StackBase:     stackBase(c),
		Seed:          seed,
	}
	if cfg.HasSPM() {
		opt.SPMBase = amap.AddrFor(c, 0)
	}
	return opt
}

// ---------------------------------------------------------------------------
// cpu.Ops implementation: route each instruction to the right hardware.

// IFetch implements cpu.Ops.
func (m *Machine) IFetch(c int, pc uint64, done sim.Cont) { m.Hier.IFetch(c, pc, done) }

// Mem implements cpu.Ops.
func (m *Machine) Mem(c int, inst isa.Inst, done sim.Cont) {
	switch inst.Kind {
	case isa.Load:
		m.Hier.Read(c, inst.Addr, inst.PC, done)
	case isa.Store:
		m.Hier.Write(c, inst.Addr, inst.PC, done)
	case isa.GuardedLoad, isa.GuardedStore:
		if m.Protocol == nil {
			// No SPMs: the guard prefix is meaningless; normal access.
			if inst.Kind == isa.GuardedStore {
				m.Hier.Write(c, inst.Addr, inst.PC, done)
			} else {
				m.Hier.Read(c, inst.Addr, inst.PC, done)
			}
			return
		}
		m.Protocol.GuardedAccessCont(c, inst.Addr, inst.PC, inst.Kind == isa.GuardedStore, done)
	case isa.SPMLoad, isa.SPMStore:
		m.spmAccess(c, inst, done)
	default:
		panic(fmt.Sprintf("system: non-memory inst %v routed to Mem", inst.Kind))
	}
}

// spmTok is a pooled continuation node for one remote-SPM round trip: step 0
// fires at the owner's node, step 1 after the SPM array access.
type spmTok struct {
	m         *Machine
	step      uint8
	core      int
	owner     int
	write     bool
	respBytes int
	done      sim.Cont
	next      *spmTok
}

func (t *spmTok) Fire() {
	m := t.m
	if t.step == 0 {
		t.step = 1
		m.SPMs[t.owner].RemoteAccess(t.write, t)
		return
	}
	core, owner, respBytes, done := t.core, t.owner, t.respBytes, t.done
	t.done = nil
	t.next = m.freeSpmToks
	m.freeSpmToks = t
	m.Mesh.SendCont(owner, core, respBytes, noc.Read, done)
}

// spmAccess performs a direct load/store to the SPM virtual range. The range
// check picks local vs remote; remote accesses ride the NoC (every core can
// address any SPM, paper §2.1).
func (m *Machine) spmAccess(c int, inst isa.Inst, done sim.Cont) {
	if m.SPMs == nil {
		panic("system: SPM access on a cache-based machine")
	}
	owner := m.AMap.CoreOf(inst.Addr)
	write := inst.Kind == isa.SPMStore
	if owner == c {
		m.SPMs[c].Access(write, done)
		return
	}
	// Remote SPM access: request + response over the NoC.
	reqBytes, respBytes := 8, 72
	if write {
		reqBytes, respBytes = 72, 8
	}
	t := m.freeSpmToks
	if t != nil {
		m.freeSpmToks = t.next
		t.next = nil
	} else {
		t = &spmTok{m: m}
	}
	t.step = 0
	t.core, t.owner, t.write, t.respBytes, t.done = c, owner, write, respBytes, done
	m.Mesh.SendCont(c, owner, reqBytes, noc.Read, t)
}

// DMAEnqueue implements cpu.Ops.
func (m *Machine) DMAEnqueue(c int, inst isa.Inst) bool {
	if m.DMACs == nil {
		panic("system: DMA on a cache-based machine")
	}
	if inst.Kind == isa.DMAPut {
		return m.DMACs[c].Put(inst.Addr, inst.Addr2, inst.Bytes, inst.Tag)
	}
	return m.DMACs[c].Get(inst.Addr, inst.Addr2, inst.Bytes, inst.Tag)
}

// DMASync implements cpu.Ops.
func (m *Machine) DMASync(c, tag int, done sim.Cont) {
	if m.DMACs == nil {
		panic("system: DMA sync on a cache-based machine")
	}
	m.DMACs[c].Sync(tag, done)
}

// SetBufSize implements cpu.Ops.
func (m *Machine) SetBufSize(c, bytes int) {
	if m.Protocol != nil {
		m.Protocol.SetBufSize(c, bytes)
	}
}

// ---------------------------------------------------------------------------
// Running and results

// Results holds everything the evaluation figures need from one run.
type Results struct {
	Benchmark string
	System    config.MemorySystem

	Cycles      uint64
	PhaseCycles [isa.NumPhases]uint64
	Retired     uint64
	Flushes     uint64

	NoCPackets  [noc.NumCategories]uint64
	TotalPkts   uint64
	NoCFlitHops uint64

	FilterHitRatio float64
	FDirBroadcasts uint64
	Energy         energy.Breakdown

	// L1D behaviour (drives the Fig. 9 analysis).
	L1DHits, L1DMisses uint64
	Prefetches         uint64
	DMALineTransfers   uint64
}

// Run executes the benchmark to completion. maxEvents bounds the run (0
// means no bound); exceeding it or deadlocking returns an error.
func (m *Machine) Run(maxEvents uint64) (Results, error) {
	return m.RunContext(context.Background(), maxEvents)
}

// ctxPollEvents is how many events may fire between context checks in
// RunContext: rare enough that the atomic load inside ctx.Err never shows up
// in profiles, frequent enough that cancellation lands within microseconds.
const ctxPollEvents = 1 << 12

// RunContext is Run with cooperative cancellation: ctx is polled every
// ctxPollEvents fired events, so a canceled context (client disconnect,
// request deadline, daemon shutdown) stops the simulation mid-run.
func (m *Machine) RunContext(ctx context.Context, maxEvents uint64) (Results, error) {
	m.Cluster.Start()
	if m.rec != nil {
		m.rec.Start()
	}
	next := uint64(ctxPollEvents)
	for m.Eng.Step() {
		fired := m.Eng.Fired()
		if maxEvents > 0 && fired > maxEvents {
			return Results{}, fmt.Errorf("system: event budget %d exceeded at cycle %d", maxEvents, m.Eng.Now())
		}
		if fired >= next {
			next = fired + ctxPollEvents
			if err := ctx.Err(); err != nil {
				return Results{}, fmt.Errorf("system: run canceled at cycle %d: %w", m.Eng.Now(), err)
			}
		}
	}
	if !m.Cluster.AllDone() {
		return Results{}, fmt.Errorf("system: deadlock — engine drained at cycle %d with unfinished cores", m.Eng.Now())
	}
	if m.rec != nil {
		m.rec.Finish()
	}
	return m.collect(), nil
}

func (m *Machine) collect() Results {
	r := Results{
		Benchmark: m.bench.Name,
		System:    m.Cfg.System,
		Cycles:    uint64(m.Cluster.FinishTime()),
		Retired:   m.Cluster.Retired(),
		Flushes:   m.Cluster.Flushes(),
	}
	for p := isa.Phase(0); p < isa.NumPhases; p++ {
		r.PhaseCycles[p] = uint64(m.Cluster.PhaseCycles(p))
	}
	for c := noc.Category(0); c < noc.NumCategories; c++ {
		r.NoCPackets[c] = m.Mesh.Packets(c)
	}
	r.TotalPkts = m.Mesh.TotalPackets()
	r.NoCFlitHops = m.Mesh.TotalFlitHops()
	r.L1DHits = m.Hier.L1DHits()
	r.L1DMisses = m.Hier.L1DMisses()
	r.Prefetches = m.Hier.PrefetchesIssued()

	hs := m.Hier.Stats()
	in := energy.Inputs{
		Cycles:        r.Cycles,
		Cores:         m.Cfg.Cores,
		RetiredInstrs: r.Retired,
		L1DAccesses:   hs.Get("l1d.accesses"),
		L1IAccesses:   hs.Get("l1i.accesses"),
		L1DSize:       m.Cfg.L1DSize,
		TLBAccesses:   hs.Get("tlb.accesses"),
		L2Accesses:    hs.Get("l2.accesses"),
		MemLines:      hs.Get("dram.reads") + hs.Get("dram.writes"),
		NoCFlitHops:   r.NoCFlitHops,
		HasSPM:        m.Cfg.HasSPM(),
	}
	if m.Cfg.HasSPM() {
		for _, s := range m.SPMs {
			in.SPMAccesses += s.TotalAccesses()
		}
		for _, d := range m.DMACs {
			r.DMALineTransfers += d.LineTransfers()
		}
		in.DMALineTransfers = r.DMALineTransfers
		ps := m.Protocol.Stats()
		in.ProtocolPresent = !m.Cfg.IdealCoherence()
		in.FilterLookups = ps.Get("filter.lookups")
		in.SPMDirLookups = ps.Get("spmdir.lookups")
		in.SPMDirUpdates = ps.Get("spmdir.updates")
		in.FDirLookups = ps.Get("fdir.lookups")
		in.FilterInvals = ps.Get("filter.invalidations")
		in.GuardedPresent = compiler.Characterize(m.bench).GuardedRefs > 0
		r.FilterHitRatio = m.Protocol.FilterHitRatio()
		r.FDirBroadcasts = ps.Get("fdir.broadcasts")
	} else {
		r.FilterHitRatio = 1
	}
	r.Energy = energy.Compute(in, energy.Defaults22nm())
	return r
}

// meshFor picks the squarest w x h mesh covering exactly cores nodes: the
// largest divisor pair, w <= h. For a prime (or otherwise poorly factorable)
// core count the only cover is the degenerate 1 x N chain, whose NoC
// diameter is N-1 instead of O(sqrt N) — a very different network. That is
// deliberate: silently rounding the core count up to a nicer mesh would
// simulate a machine the user did not ask for, so the count is honored and
// the chain documented (DESIGN.md §2, "Mesh dimensioning"); users who care
// about the topology override mesh_width/mesh_height explicitly.
func meshFor(cores int) (w, h int) {
	w, h = 1, cores
	for d := 1; d*d <= cores; d++ {
		if cores%d == 0 {
			w, h = d, cores/d
		}
	}
	return w, h
}

// applyShrink re-dimensions cfg's derived structures for a changed core
// count: the mesh is re-factored, the memory controllers capped, and the
// FilterDir floored (DESIGN.md §5 "Structure floors"). Each adjustment is
// suppressed when ov pins the corresponding knob explicitly. Spec.Config is
// its only caller, and Spec.Hash() encodes the machine it produces.
func applyShrink(cfg *config.Config, ov *config.Overrides) {
	if ov.MeshWidth == 0 && ov.MeshHeight == 0 {
		cfg.MeshWidth, cfg.MeshHeight = meshFor(cfg.Cores)
	}
	if ov.MemControllers == 0 && cfg.MemControllers > cfg.Cores {
		cfg.MemControllers = cfg.Cores
	}
	if ov.FilterDirEntries == 0 && cfg.FilterDirEntries < cfg.Cores {
		cfg.FilterDirEntries = cfg.Cores
	}
}
