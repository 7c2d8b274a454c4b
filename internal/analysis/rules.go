package analysis

import (
	"fmt"

	"repro/internal/isa"
)

// Counter names the rules read from Input.Stats. statNames lists every one
// so a test can check them against a real machine's counter snapshot: a
// renamed counter would read 0 and silently mute its rule.
const (
	statDRAMReads  = "coherence.dram.reads"
	statDRAMWrites = "coherence.dram.writes"
	statL2Accesses = "coherence.l2.accesses"
	statL2Misses   = "coherence.l2.misses"
	statDMASnoops  = "coherence.dma.snoops"
)

var statNames = []string{statDRAMReads, statDRAMWrites, statL2Accesses, statL2Misses, statDMASnoops}

// Thresholds, calibrated against the tiny-scale exhibits so the healthy
// golden specs stay quiet and the deliberately misconfigured ones fire
// deterministically (analysis_golden_test.go pins both). They are package
// constants, not knobs: a rule that needs per-site tuning is a bad rule.
const (
	// filterWarnHit / filterCritHit: guarded-filter hit ratio below which
	// capacity misses (and the FilterDir broadcasts they trigger) dominate.
	// Healthy NAS runs sit >= 0.92; a thrashing filter lands near zero.
	filterWarnHit = 0.85
	filterCritHit = 0.40

	// fdirStormPerK / fdirStormMin: FilterDir broadcasts per 1000 retired
	// instructions (and an absolute floor so tiny runs don't trip on noise).
	fdirStormPerK = 1.0
	fdirStormMin  = 64

	// nocWarnUtil / nocCritUtil: mean flit-hops per cycle as a share of the
	// mesh's aggregate directed-link capacity.
	nocWarnUtil = 0.30
	nocCritUtil = 0.50

	// memWarnUtil / memCritUtil: DRAM line transfers x cycles-per-line over
	// cycles x controllers — the controllers' duty cycle.
	memWarnUtil = 0.30
	memCritUtil = 0.60

	// l2WallRatio / l2WallMinAcc: L2 miss ratio past which the shared cache
	// is a pass-through, given enough accesses to mean anything.
	l2WallRatio  = 0.90
	l2WallMinAcc = 5000

	// l1dWallRatio / l1dWallMinAcc: same wall for the L1D.
	l1dWallRatio  = 0.90
	l1dWallMinAcc = 5000

	// mshrPressure: mean outstanding misses per core (Little's law estimate:
	// L1D misses x memory latency / cycles / cores) as a share of MSHREntries.
	mshrPressure = 0.80

	// prefetchMinIssued / prefetchMissRatio: prefetches issued while the L1D
	// miss ratio stayed this high mean the prefetcher burns bandwidth without
	// converting misses.
	prefetchMinIssued = 1000
	prefetchMissRatio = 0.50

	// syncWarnShare / syncCritShare: share of phase cycles spent in Sync —
	// cores waiting at barriers instead of working.
	syncWarnShare = 0.35
	syncCritShare = 0.50

	// flushStormPerK: LSQ flushes per 1000 retired instructions.
	flushStormPerK = 5.0

	// dmaDoubleShare / dmaDoubleMin: share of DMA line transfers that
	// snooped a dirty cached copy — each one moved the data twice.
	dmaDoubleShare = 0.05
	dmaDoubleMin   = 1000

	// energyNoCShare: NoC share of total energy past which data movement,
	// not computation, is the power story.
	energyNoCShare = 0.25

	// stallEpochRate / stallCycleShare: a timeline epoch is "stalled" when
	// its retire rate falls below stallEpochRate x the run mean; the rule
	// fires when stalled epochs cover at least stallCycleShare of the run.
	stallEpochRate  = 0.25
	stallCycleShare = 0.40
)

// phaseTotal sums the per-phase cycle attribution.
func phaseTotal(in *Input) uint64 {
	var t uint64
	for p := isa.Phase(0); p < isa.NumPhases; p++ {
		t += in.Results.PhaseCycles[p]
	}
	return t
}

// l1dMissRatio returns the L1D miss ratio and total accesses (0,0 when the
// run never touched the L1D — SPM-only codes).
func l1dMissRatio(in *Input) (float64, uint64) {
	acc := in.Results.L1DHits + in.Results.L1DMisses
	return ratio(in.Results.L1DMisses, acc), acc
}

// meshLinks counts the directed links of the w x h mesh.
func meshLinks(w, h int) int { return 2 * (w*(h-1) + h*(w-1)) }

// Rules is the registry, in report order. IDs are stable API: they appear in
// JSON findings, the daemon's analysis_findings_total{rule=...} metric, and
// the golden findings file.
var Rules = []Rule{
	{
		ID:    "filter-pressure",
		Title: "guarded-access filter thrashing",
		Needs: needsProtocol,
		Check: func(in *Input) *Finding {
			hr := in.Results.FilterHitRatio
			if hr >= filterWarnHit {
				return nil
			}
			sev := SevWarn
			if hr < filterCritHit {
				sev = SevCritical
			}
			cur := in.Config.FilterEntries
			return &Finding{
				Severity: sev,
				Message: fmt.Sprintf("filter hit ratio %s: guarded accesses overflow the %d-entry filter, forcing FilterDir lookups and broadcasts",
					pct(hr), cur),
				Evidence:   []Evidence{ev("filter_hit_ratio", hr), ev("filter_entries", float64(cur))},
				Suggestion: &Suggestion{Knob: "filter_entries", Current: cur, Proposed: cur * 4, Note: "grow until the hit ratio knees (see the ablation sweep)"},
			}
		},
	},
	{
		ID:    "fdir-broadcast-storm",
		Title: "FilterDir invalidation broadcasts",
		Needs: needsProtocol,
		Check: func(in *Input) *Finding {
			b := in.Results.FDirBroadcasts
			perK := ratio(b, in.Results.Retired) * 1000
			if b < fdirStormMin || perK < fdirStormPerK {
				return nil
			}
			cur := in.Config.FilterDirEntries
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("%d FilterDir broadcasts (%.2f per 1k instructions): sharer tracking overflows, invalidations go to every core",
					b, perK),
				Evidence:   []Evidence{ev("fdir_broadcasts", float64(b)), ev("broadcasts_per_1k_retired", perK)},
				Suggestion: &Suggestion{Knob: "filterdir_entries", Current: cur, Proposed: cur * 2},
			}
		},
	},
	{
		ID:    "noc-saturation",
		Title: "mesh link saturation",
		Check: func(in *Input) *Finding {
			cfg := in.Config
			capacity := uint64(meshLinks(cfg.MeshWidth, cfg.MeshHeight)*cfg.LinkBandwidth) * in.Results.Cycles
			util := ratio(in.Results.NoCFlitHops, capacity)
			if util < nocWarnUtil {
				return nil
			}
			sev := SevWarn
			if util >= nocCritUtil {
				sev = SevCritical
			}
			return &Finding{
				Severity: sev,
				Message: fmt.Sprintf("NoC at %s of aggregate link capacity (%dx%d mesh, %d flits/link/cycle): traffic queues in the network",
					pct(util), cfg.MeshWidth, cfg.MeshHeight, cfg.LinkBandwidth),
				Evidence:   []Evidence{ev("link_utilization", util), ev("flit_hops_per_cycle", ratio(in.Results.NoCFlitHops, in.Results.Cycles))},
				Suggestion: &Suggestion{Knob: "link_bandwidth", Current: cfg.LinkBandwidth, Proposed: cfg.LinkBandwidth * 2},
			}
		},
	},
	{
		ID:    "mem-bandwidth-bound",
		Title: "DRAM controllers saturated",
		Needs: needsStats,
		Check: func(in *Input) *Finding {
			lines := in.Stats[statDRAMReads] + in.Stats[statDRAMWrites]
			cfg := in.Config
			util := ratio(lines*uint64(cfg.MemCyclesPerLn), in.Results.Cycles*uint64(cfg.MemControllers))
			if util < memWarnUtil {
				return nil
			}
			sev := SevWarn
			if util >= memCritUtil {
				sev = SevCritical
			}
			return &Finding{
				Severity: sev,
				Message: fmt.Sprintf("memory controllers at %s duty cycle (%d line transfers over %d controllers): runs at DRAM bandwidth",
					pct(util), lines, cfg.MemControllers),
				Evidence:   []Evidence{ev("dram_utilization", util), ev("dram_lines", float64(lines))},
				Suggestion: &Suggestion{Knob: "mem_controllers", Current: cfg.MemControllers, Proposed: cfg.MemControllers * 2},
			}
		},
	},
	{
		ID:    "l2-miss-wall",
		Title: "shared L2 pass-through",
		Needs: needsStats,
		Check: func(in *Input) *Finding {
			acc, miss := in.Stats[statL2Accesses], in.Stats[statL2Misses]
			mr := ratio(miss, acc)
			if acc < l2WallMinAcc || mr < l2WallRatio {
				return nil
			}
			cur := in.Config.L2SliceSize
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("L2 miss ratio %s over %d accesses: the working set does not fit the %d KB/core slices",
					pct(mr), acc, cur>>10),
				Evidence:   []Evidence{ev("l2_miss_ratio", mr), ev("l2_accesses", float64(acc))},
				Suggestion: &Suggestion{Knob: "l2_slice_size", Current: cur, Proposed: cur * 2},
			}
		},
	},
	{
		ID:    "l1d-miss-pressure",
		Title: "L1D wall",
		Check: func(in *Input) *Finding {
			mr, acc := l1dMissRatio(in)
			if acc < l1dWallMinAcc || mr < l1dWallRatio {
				return nil
			}
			cur := in.Config.L1DSize
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("L1D miss ratio %s over %d accesses: nearly every global-memory reference leaves the core",
					pct(mr), acc),
				Evidence:   []Evidence{ev("l1d_miss_ratio", mr), ev("l1d_accesses", float64(acc))},
				Suggestion: &Suggestion{Knob: "l1d_size", Current: cur, Proposed: cur * 2},
			}
		},
	},
	{
		ID:    "mshr-pressure",
		Title: "outstanding misses near the MSHR bound",
		Check: func(in *Input) *Finding {
			cfg := in.Config
			// Little's law: mean outstanding = miss rate x memory latency.
			outst := ratio(in.Results.L1DMisses*uint64(cfg.MemLatency), in.Results.Cycles) / float64(cfg.Cores)
			bound := float64(cfg.MSHREntries)
			if outst < mshrPressure*bound {
				return nil
			}
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("~%.1f outstanding L1D misses per core against %d MSHRs: miss-level parallelism is structurally capped",
					outst, cfg.MSHREntries),
				Evidence:   []Evidence{ev("outstanding_per_core", outst), ev("mshr_entries", bound)},
				Suggestion: &Suggestion{Knob: "mshr_entries", Current: cfg.MSHREntries, Proposed: cfg.MSHREntries * 2},
			}
		},
	},
	{
		ID:    "prefetch-ineffective",
		Title: "prefetcher not converting misses",
		Check: func(in *Input) *Finding {
			mr, acc := l1dMissRatio(in)
			pf := in.Results.Prefetches
			if pf < prefetchMinIssued || acc < l1dWallMinAcc || mr < prefetchMissRatio {
				return nil
			}
			cur := in.Config.PrefetchDegree
			prop := cur / 2
			if prop < 1 {
				prop = 1
			}
			return &Finding{
				Severity: SevInfo,
				Message: fmt.Sprintf("%d prefetches issued yet the L1D miss ratio stayed at %s: the access pattern defeats the stride predictor",
					pf, pct(mr)),
				Evidence:   []Evidence{ev("prefetches", float64(pf)), ev("l1d_miss_ratio", mr)},
				Suggestion: &Suggestion{Knob: "prefetch_degree", Current: cur, Proposed: prop, Note: "useless prefetches still cost NoC and DRAM bandwidth"},
			}
		},
	},
	{
		ID:    "sync-imbalance",
		Title: "barrier wait dominates",
		Check: func(in *Input) *Finding {
			tot := phaseTotal(in)
			share := ratio(in.Results.PhaseCycles[isa.PhaseSync], tot)
			if tot == 0 || share < syncWarnShare {
				return nil
			}
			sev := SevWarn
			if share >= syncCritShare {
				sev = SevCritical
			}
			return &Finding{
				Severity: sev,
				Message: fmt.Sprintf("%s of phase cycles spent waiting at barriers: per-core work is imbalanced or serialized on stragglers",
					pct(share)),
				Evidence: []Evidence{ev("sync_share", share), ev("sync_cycles", float64(in.Results.PhaseCycles[isa.PhaseSync]))},
			}
		},
	},
	{
		ID:    "flush-storm",
		Title: "LSQ ordering flushes",
		Needs: needsProtocol,
		Check: func(in *Input) *Finding {
			perK := ratio(in.Results.Flushes, in.Results.Retired) * 1000
			if perK < flushStormPerK {
				return nil
			}
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("%.2f pipeline flushes per 1k instructions: guarded stores keep aliasing in-flight SPM-mapped loads (§3.4 re-check)",
					perK),
				Evidence: []Evidence{ev("flushes_per_1k_retired", perK), ev("flushes", float64(in.Results.Flushes))},
			}
		},
	},
	{
		ID:    "dma-double-transfer",
		Title: "DMA moving data twice",
		Needs: needsStats | needsSPM,
		Check: func(in *Input) *Finding {
			snoops := in.Stats[statDMASnoops]
			lines := in.Results.DMALineTransfers
			share := ratio(snoops, lines)
			if lines < dmaDoubleMin || share < dmaDoubleShare {
				return nil
			}
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("%s of DMA line transfers snooped a dirty cached copy: those lines crossed the NoC twice (cache writeback, then DMA)",
					pct(share)),
				Evidence: []Evidence{ev("dma_snoop_share", share), ev("dma_snoops", float64(snoops)), ev("dma_lines", float64(lines))},
			}
		},
	},
	{
		ID:    "energy-noc-heavy",
		Title: "energy dominated by data movement",
		Check: func(in *Input) *Finding {
			total := in.Results.Energy.Total()
			if total == 0 {
				return nil
			}
			share := in.Results.Energy.NoC / total
			if share < energyNoCShare {
				return nil
			}
			return &Finding{
				Severity: SevInfo,
				Message:  fmt.Sprintf("NoC is %s of total energy: wires, not arithmetic, set the power bill", pct(share)),
				Evidence: []Evidence{ev("noc_energy_share", share), ev("total_energy_pj", total)},
			}
		},
	},
	{
		ID:    "timeline-stall-epoch",
		Title: "retirement stalls in the timeline",
		Needs: needsSeries,
		Check: func(in *Input) *Finding {
			ts := in.Series
			retired := -1
			for i, n := range ts.Names {
				if n == "core.retired" {
					retired = i
				}
			}
			if retired < 0 || len(ts.Epochs) == 0 || ts.FinalCycle == 0 {
				return nil
			}
			var total uint64
			for _, e := range ts.Epochs {
				total += e.Deltas[retired]
			}
			mean := ratio(total, ts.FinalCycle)
			if mean == 0 {
				return nil
			}
			// An epoch covers (cycle - previous cycle); quiet periods were
			// elided by the delta encoding and count as fully stalled.
			var stalled, prev, worstCycle uint64
			worst := mean
			for _, e := range ts.Epochs {
				span := e.Cycle - prev
				prev = e.Cycle
				if span == 0 {
					continue
				}
				rate := ratio(e.Deltas[retired], span)
				if rate < stallEpochRate*mean {
					stalled += span
					if rate < worst {
						worst, worstCycle = rate, e.Cycle
					}
				}
			}
			stalled += ts.FinalCycle - prev // trailing quiet tail
			share := ratio(stalled, ts.FinalCycle)
			if share < stallCycleShare {
				return nil
			}
			return &Finding{
				Severity: SevWarn,
				Message: fmt.Sprintf("%s of the run retired below %.0f%% of the mean rate (worst epoch ends at cycle %d): long stall phases, not uniform slowness",
					pct(share), stallEpochRate*100, worstCycle),
				Evidence: []Evidence{ev("stalled_cycle_share", share), ev("mean_retire_rate", mean), ev("worst_epoch_cycle", float64(worstCycle))},
			}
		},
	},
}
