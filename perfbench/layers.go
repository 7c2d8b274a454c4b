package main

import (
	"repro/internal/system"
	"repro/internal/telemetry"
)

// layerCounts is the simulated work of each layer, read from the machine's
// public accessors after a run. The counts are a pure function of the spec:
// they identify a model change, they do not measure speed.
type layerCounts struct {
	events                                                   uint64
	packets, flitHops, nocLatSum, nocLatN                    uint64
	l1dHits, l1dMisses, l2Misses, dramLines, prefetches      uint64
	guarded, filterHits, filterLookups, fdirBcast, spmdirHit uint64
	spmdirLookups                                            uint64
	dmaLines, spmAccesses                                    uint64
	retired, cycles, flushes                                 uint64
}

func countLayers(m *system.Machine) layerCounts {
	hs := m.Hier.Stats()
	// noc.send trace events are instants (injection), so the NoC's
	// simulated latency comes from the mesh's delivery distribution.
	lat := m.Mesh.Latency()
	c := layerCounts{
		events:     m.Eng.Fired(),
		packets:    m.Mesh.TotalPackets(),
		flitHops:   m.Mesh.TotalFlitHops(),
		nocLatSum:  lat.Sum,
		nocLatN:    lat.Count,
		l1dHits:    m.Hier.L1DHits(),
		l1dMisses:  m.Hier.L1DMisses(),
		l2Misses:   hs.Get("l2.misses"),
		dramLines:  hs.Get("dram.reads") + hs.Get("dram.writes"),
		prefetches: m.Hier.PrefetchesIssued(),
		retired:    m.Cluster.Retired(),
		cycles:     uint64(m.Cluster.FinishTime()),
		flushes:    m.Cluster.Flushes(),
	}
	if m.Protocol != nil {
		ps := m.Protocol.Stats()
		c.guarded = ps.Get("guarded.accesses")
		c.filterHits = ps.Get("filter.hits")
		c.filterLookups = ps.Get("filter.lookups")
		c.fdirBcast = ps.Get("fdir.broadcasts")
		c.spmdirHit = ps.Get("spmdir.hits") + ps.Get("spmdir.remote_hits")
		c.spmdirLookups = ps.Get("spmdir.lookups")
	}
	for _, d := range m.DMACs {
		c.dmaLines += d.LineTransfers()
	}
	for _, s := range m.SPMs {
		c.spmAccesses += s.TotalAccesses()
	}
	return c
}

func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	c.packets += o.packets
	c.flitHops += o.flitHops
	c.nocLatSum += o.nocLatSum
	c.nocLatN += o.nocLatN
	c.l1dHits += o.l1dHits
	c.l1dMisses += o.l1dMisses
	c.l2Misses += o.l2Misses
	c.dramLines += o.dramLines
	c.prefetches += o.prefetches
	c.guarded += o.guarded
	c.filterHits += o.filterHits
	c.filterLookups += o.filterLookups
	c.fdirBcast += o.fdirBcast
	c.spmdirHit += o.spmdirHit
	c.spmdirLookups += o.spmdirLookups
	c.dmaLines += o.dmaLines
	c.spmAccesses += o.spmAccesses
	c.retired += o.retired
	c.cycles += o.cycles
	c.flushes += o.flushes
}

func (c layerCounts) set(rep *report) {
	f := func(v uint64) float64 { return float64(v) }
	rep.set("sim.events", "count", f(c.events))
	rep.set("noc.packets", "count", f(c.packets))
	rep.set("noc.flit_hops", "count", f(c.flitHops))
	rep.set("noc.sim_latency_cycles", "cycles", ratio(f(c.nocLatSum), f(c.nocLatN)))
	rep.set("coherence.l1d_hit_ratio", "ratio", ratio(f(c.l1dHits), f(c.l1dHits+c.l1dMisses)))
	rep.set("coherence.l2_misses", "count", f(c.l2Misses))
	rep.set("coherence.dram_lines", "count", f(c.dramLines))
	rep.set("cache.prefetches", "count", f(c.prefetches))
	rep.set("core.guarded", "count", f(c.guarded))
	rep.set("core.filter_hit_ratio", "ratio", ratio(f(c.filterHits), f(c.filterLookups)))
	rep.set("core.fdir_broadcasts", "count", f(c.fdirBcast))
	rep.set("core.spmdir_lookups", "count", f(c.spmdirLookups))
	rep.set("core.spmdir_hits", "count", f(c.spmdirHit))
	rep.set("dma.lines", "count", f(c.dmaLines))
	rep.set("spm.accesses", "count", f(c.spmAccesses))
	rep.set("cpu.retired", "count", f(c.retired))
	rep.set("cpu.sim_cycles", "cycles", f(c.cycles))
	rep.set("cpu.flushes", "count", f(c.flushes))
}

// traceLatency sums simulated span durations per kind from a recorded run's
// event trace. The ring keeps the newest events, so the means describe the
// retained suffix; dropped says how much came before it.
type traceLatency struct {
	cohSum, cohN, guardSum, guardN, dropped uint64
}

func traceLatencies(tr *telemetry.Trace) traceLatency {
	var t traceLatency
	if tr == nil {
		return t
	}
	for _, e := range tr.Events() {
		switch e.Kind {
		case telemetry.KCohAccess:
			t.cohSum += uint64(e.Dur)
			t.cohN++
		case telemetry.KGuarded:
			t.guardSum += uint64(e.Dur)
			t.guardN++
		}
	}
	t.dropped = tr.Dropped()
	return t
}

func (t *traceLatency) add(o traceLatency) {
	t.cohSum += o.cohSum
	t.cohN += o.cohN
	t.guardSum += o.guardSum
	t.guardN += o.guardN
	t.dropped += o.dropped
}

func (t traceLatency) set(rep *report) {
	rep.set("coherence.sim_latency_cycles", "cycles", ratio(float64(t.cohSum), float64(t.cohN)))
	rep.set("core.sim_latency_cycles", "cycles", ratio(float64(t.guardSum), float64(t.guardN)))
	rep.set("trace.dropped", "count", float64(t.dropped))
}
