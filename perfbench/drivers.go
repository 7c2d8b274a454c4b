package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rescache"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spm"
	"repro/internal/system"
	"repro/internal/workloads"
)

// The layer drivers time fixed synthetic operations against each layer's
// public functions on a fresh engine, with no workload generator, so a
// layer's cost per operation is measured apart from how often a workload
// calls it. They run on every traced run and do not depend on the workload.

// runDrivers runs every layer driver and sets its metrics. A driver whose
// operations did not take the path it times counts as a failed check.
func runDrivers(ctx context.Context, rep *report, seed uint64) error {
	rep.set("sim.ns_dispatch", "ns", engineDriver())
	rep.set("noc.ns_per_packet", "ns", nocDriver())
	ns, err := coherenceDriver()
	if err != nil {
		return err
	}
	rep.set("coherence.ns_per_access", "ns", ns)
	coreDriver(rep)
	if ns, err = dmaDriver(); err != nil {
		return err
	}
	rep.set("dma.ns_per_line", "ns", ns)

	execMS, res, err := executeDriver(ctx, seed)
	if err != nil {
		return err
	}
	rep.set("system.execute_ms", "ms", execMS)
	if err := rescacheDriver(rep, seed, res); err != nil {
		return err
	}
	if err := serviceDriver(ctx, rep, seed); err != nil {
		return err
	}
	return hopDriver(ctx, rep, seed)
}

func nsPer(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// ticker is a self-rescheduling continuation: the engine driver's event.
type ticker struct {
	eng   *sim.Engine
	left  *int
	delay sim.Time
}

func (t *ticker) Fire() {
	if *t.left == 0 {
		return
	}
	*t.left--
	t.eng.ScheduleCont(t.delay, t)
}

// engineDriver times ScheduleCont + Step: 64 interleaved event chains with
// delays inside the near-horizon ring plus one far-future chain.
func engineDriver() float64 {
	eng := sim.NewEngine()
	left := 1 << 21
	for i := 0; i < 64; i++ {
		delay := sim.Time(1 + i%13)
		if i == 63 {
			delay = 5000
		}
		eng.ScheduleCont(sim.Time(i%8), &ticker{eng: eng, left: &left, delay: delay})
	}
	t0 := time.Now()
	for eng.Step() {
	}
	return nsPer(time.Since(t0), eng.Fired())
}

// nocDriver times Mesh.SendCont from one corner of a 4x4 mesh to nodes 0
// through 6 hops away, each packet delivered before the next is sent.
func nocDriver() float64 {
	cfg := config.Default()
	eng := sim.NewEngine()
	mesh := noc.NewBW(eng, 4, 4, cfg.FlitBytes, cfg.LinkBandwidth, cfg.LinkLatency, cfg.RouterLatency)
	const perHop = 20000
	dsts := []int{0, 1, 2, 3, 7, 11, 15} // 0..6 hops from node 0
	t0 := time.Now()
	for _, d := range dsts {
		for i := 0; i < perHop; i++ {
			mesh.SendCont(0, d, 72, noc.Read, nil)
			eng.Run()
		}
	}
	return nsPer(time.Since(t0), uint64(perHop*len(dsts)))
}

// smallRig wires the unit-test sized hybrid machine (4 cores, 2x2 mesh)
// up to the protocol, with 1 KB SPM buffers on every core.
type smallRig struct {
	cfg  config.Config
	eng  *sim.Engine
	hier *coherence.Hierarchy
	spms []*spm.SPM
	amap spm.AddressMap
	prot *core.Protocol
}

const rigBuf = 1024

func newSmallRig() *smallRig {
	cfg := config.SmallTest()
	eng := sim.NewEngine()
	mesh := noc.New(eng, cfg.MeshWidth, cfg.MeshHeight, cfg.FlitBytes, cfg.LinkLatency, cfg.RouterLatency)
	dram := mem.NewSystem(eng, []int{0}, cfg.LineSize, cfg.MemLatency, cfg.MemCyclesPerLn)
	r := &smallRig{cfg: cfg, eng: eng, hier: coherence.New(eng, cfg, mesh, dram)}
	for i := 0; i < cfg.Cores; i++ {
		r.spms = append(r.spms, spm.New(eng, cfg.SPMLatency))
	}
	r.amap = spm.NewAddressMap(cfg.Cores, cfg.SPMSize)
	r.prot = core.New(eng, cfg, mesh, r.hier, r.spms, r.amap, false)
	for c := 0; c < cfg.Cores; c++ {
		r.prot.SetBufSize(c, rigBuf)
	}
	return r
}

const driverPC = 0x400040

// coherenceDriver times Hierarchy.Read/Write over a fixed mix per line: a
// first read (DRAM), a re-read (L1 hit), a read by another core (owner
// forward), a write (upgrade and invalidation), and a re-read of a line
// long evicted from L1 but still in L2.
func coherenceDriver() (float64, error) {
	r := newSmallRig()
	h, eng := r.hier, r.eng
	const lines = 6000
	line := uint64(r.cfg.LineSize)
	var n uint64
	t0 := time.Now()
	for i := uint64(0); i < lines; i++ {
		addr := 0x100000 + i*line
		h.Read(0, addr, driverPC, sim.Nop)
		eng.Run()
		h.Read(0, addr, driverPC, sim.Nop)
		eng.Run()
		h.Read(1, addr, driverPC, sim.Nop)
		eng.Run()
		h.Write(0, addr, driverPC, sim.Nop)
		eng.Run()
		n += 4
		if i >= 256 {
			h.Read(0, addr-256*line, driverPC, sim.Nop)
			eng.Run()
			n++
		}
	}
	el := time.Since(t0)
	if err := h.CheckInvariants(); err != nil {
		return 0, fmt.Errorf("coherence driver: %w", err)
	}
	return nsPer(el, n), nil
}

// coreDriver times GuardedAccessCont on each resolution path and checks,
// through the protocol's counters, that each loop took the path it times.
func coreDriver(rep *report) {
	r := newSmallRig()
	p, eng := r.prot, r.eng
	ps := p.Stats()
	const n = 30000
	guarded := func(addr uint64) {
		p.GuardedAccessCont(0, addr, driverPC, false, nil)
		eng.Run()
	}

	// Filter hit: one unmapped chunk, warmed once, then re-accessed.
	guarded(0x50000)
	h0 := ps.Get("filter.hits")
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		guarded(0x50000 + i%16*64)
	}
	rep.set("core.ns_filter_hit", "ns", nsPer(time.Since(t0), n))
	rep.check(ps.Get("filter.hits")-h0 == n, "core driver: filter-hit loop missed the filter")

	// FilterDir miss: a fresh unmapped chunk every access.
	m0 := ps.Get("filter.misses")
	t0 = time.Now()
	for i := uint64(0); i < n; i++ {
		guarded(0x1000000 + i*rigBuf)
	}
	rep.set("core.ns_fdir_miss", "ns", nsPer(time.Since(t0), n))
	rep.check(ps.Get("filter.misses")-m0 == n, "core driver: fdir-miss loop hit the filter")

	// SPMDir divert: a chunk mapped into core 0's SPM, as a dma-get does.
	p.NotifyMap(0, 0x200000, r.amap.AddrFor(0, 0), rigBuf)
	eng.Run()
	d0 := ps.Get("spmdir.hits")
	t0 = time.Now()
	for i := uint64(0); i < n; i++ {
		guarded(0x200000 + i%16*64)
	}
	rep.set("core.ns_spmdir_divert", "ns", nsPer(time.Since(t0), n))
	rep.check(ps.Get("spmdir.hits")-d0 == n, "core driver: divert loop missed the SPMDir")
}

// dmaDriver times alternating 1 KB dma-get and dma-put commands on core
// 0's controller, each synced before the next.
func dmaDriver() (float64, error) {
	r := newSmallRig()
	d := dma.NewController(r.eng, 0, r.hier, r.spms[0], r.prot,
		r.cfg.LineSize, r.cfg.DMACmdQueue, r.cfg.DMABusQueue, r.cfg.DMALineCycles)
	const cmds = 3000
	t0 := time.Now()
	for i := 0; i < cmds; i++ {
		gm := 0x400000 + uint64(i%64)*rigBuf
		local := r.amap.AddrFor(0, uint64(i%4)*rigBuf)
		tag := i % 4
		ok := false
		if i%2 == 0 {
			ok = d.Get(gm, local, rigBuf, tag)
		} else {
			ok = d.Put(gm, local, rigBuf, tag)
		}
		if !ok {
			return 0, fmt.Errorf("dma driver: command %d rejected", i)
		}
		d.Sync(tag, sim.Nop)
		r.eng.Run()
	}
	return nsPer(time.Since(t0), d.LineTransfers()), nil
}

// missSpec is the fleet's computed-request shape: a tiny 4-core hybrid EP
// run, made distinct by its seed.
func missSpec(seed uint64) system.Spec {
	return system.Spec{
		System:    config.HybridReal,
		Benchmark: "EP",
		Scale:     workloads.Tiny,
		Overrides: config.Overrides{Cores: 4},
		Seed:      seed,
	}
}

// freshSeed derives the i-th distinct spec seed of a run.
func freshSeed(seed, i uint64) uint64 { return splitmix64(seed<<32^i) | 1 }

// executeDriver times Spec.ExecuteContext of the miss shape directly.
func executeDriver(ctx context.Context, seed uint64) (float64, system.Results, error) {
	var lat []float64
	var res system.Results
	for i := uint64(0); i < 8; i++ {
		t0 := time.Now()
		r, err := missSpec(freshSeed(seed, 1<<20+i)).ExecuteContext(ctx)
		if err != nil {
			return 0, res, err
		}
		lat = append(lat, ms(time.Since(t0)))
		res = r
	}
	return median(lat), res, nil
}

// rescacheDriver times Put, a memory-tier Get, a miss, and a disk-tier Get.
func rescacheDriver(rep *report, seed uint64, res system.Results) error {
	const n = 2000
	specs := make([]system.Spec, 2*n)
	for i := range specs {
		specs[i] = missSpec(freshSeed(seed, 2<<20+uint64(i)))
	}
	memc, err := rescache.New(n, "")
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, sp := range specs[:n] {
		memc.Put(sp, res)
	}
	rep.set("rescache.put_us", "us", nsPer(time.Since(t0), n)/1e3)
	t0 = time.Now()
	hits := 0
	for _, sp := range specs[:n] {
		if _, ok := memc.Get(sp); ok {
			hits++
		}
	}
	rep.set("rescache.get_us", "us", nsPer(time.Since(t0), n)/1e3)
	t0 = time.Now()
	for _, sp := range specs[n:] {
		if _, ok := memc.Get(sp); ok {
			hits--
		}
	}
	rep.set("rescache.miss_us", "us", nsPer(time.Since(t0), n)/1e3)
	rep.check(hits == n, "rescache driver: %d of %d memory lookups answered as expected", hits, n)

	// Disk tier: a one-entry memory tier in front of a directory, so every
	// lookup of an older key is served from disk.
	dir, err := os.MkdirTemp(scratchDir, "rescache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := rescache.New(1, dir)
	if err != nil {
		return err
	}
	const nd = 300
	for _, sp := range specs[:nd] {
		disk.Put(sp, res)
	}
	t0 = time.Now()
	for i := nd - 2; i >= 0; i-- {
		_, ok := disk.Get(specs[i])
		rep.check(ok, "rescache driver: disk tier lost %s", specs[i].Key())
	}
	rep.set("rescache.disk_get_us", "us", nsPer(time.Since(t0), nd-1)/1e3)
	rep.check(disk.Stats().DiskHits == nd-1, "rescache driver: %d disk hits, want %d", disk.Stats().DiskHits, nd-1)
	return nil
}

// serviceDriver times POST /v1/runs?wait=true against one in-process node:
// computed runs of fresh specs, then cached re-asks of one of them.
func serviceDriver(ctx context.Context, rep *report, seed uint64) error {
	srv := service.New(service.Options{Workers: 1})
	defer srv.Close()
	node, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	defer node.close()
	cl := newClient(node.url)
	defer cl.HTTP.CloseIdleConnections()

	var computed, cached []float64
	for i := uint64(0); i < 6; i++ {
		t0 := time.Now()
		rec, err := cl.Run(ctx, missSpec(freshSeed(seed, 3<<20+i)), 0)
		computed = append(computed, ms(time.Since(t0)))
		rep.check(err == nil && !rec.Cached, "service driver: computed run err=%v cached=%v", err, rec.Cached)
	}
	spec := missSpec(freshSeed(seed, 3<<20))
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		rec, err := cl.Run(ctx, spec, 0)
		cached = append(cached, ms(time.Since(t0)))
		rep.check(err == nil && rec.Cached, "service driver: cached run err=%v cached=%v", err, rec.Cached)
	}
	rep.set("service.computed_ms", "ms", median(computed))
	rep.set("service.cached_ms", "ms", median(cached))
	return nil
}

// hopDriver measures the fleet's peer hop from outside: a key cached only
// at its owner is requested through the owner, then through the other
// member, which forwards it. The hop is the median difference.
func hopDriver(ctx context.Context, rep *report, seed uint64) error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	defer f.close()
	var hops []float64
	for i := uint64(0); i < 24; i++ {
		spec := missSpec(freshSeed(seed, 4<<20+i))
		owner, non := f.ownerOf(spec)
		first, err := owner.client.Run(ctx, spec, 0)
		if err != nil {
			return fmt.Errorf("hop driver: %w", err)
		}
		t0 := time.Now()
		viaOwner, err1 := owner.client.Run(ctx, spec, 0)
		t1 := time.Now()
		viaPeer, err2 := non.client.Run(ctx, spec, 0)
		t2 := time.Now()
		rep.check(err1 == nil && err2 == nil && viaOwner.Cached &&
			resultsEqual(viaOwner, first) && resultsEqual(viaPeer, first),
			"hop driver: %s answers differ (err %v, %v)", spec.Key(), err1, err2)
		hops = append(hops, ms(t2.Sub(t1))-ms(t1.Sub(t0)))
	}
	rep.set("cluster.hop_ms", "ms", median(hops))
	return nil
}

func resultsEqual(a, b service.RunRecord) bool {
	return a.Results != nil && b.Results != nil && *a.Results == *b.Results
}
