// Package config describes the simulated manycore. Default() reproduces
// Table 1 of the paper: a 64-core out-of-order x86-like manycore with a
// MOESI-coherent two-level cache hierarchy, a mesh NoC and, in the hybrid
// configuration, a 32 KB scratchpad plus DMA controller per core.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// MemorySystem selects which machine is simulated.
type MemorySystem int

const (
	// CacheBased is the baseline: no SPMs, and (per the paper's fairness
	// rule) the L1 D-cache is doubled to 64 KB.
	CacheBased MemorySystem = iota
	// HybridIdeal is the hybrid memory system with an oracle coherence
	// protocol: guarded accesses are diverted to the valid copy with no
	// SPMDir/Filter/FilterDir lookups and no protocol traffic.
	HybridIdeal
	// HybridReal is the hybrid memory system with the paper's coherence
	// protocol (SPMDirs, Filters, FilterDir).
	HybridReal
)

func (m MemorySystem) String() string {
	switch m {
	case CacheBased:
		return "cache"
	case HybridIdeal:
		return "hybrid-ideal"
	case HybridReal:
		return "hybrid"
	default:
		return fmt.Sprintf("MemorySystem(%d)", int(m))
	}
}

// MarshalJSON encodes the system by its stable name, so JSON result sinks
// stay readable and robust against enum reordering.
// No name needs a JSON escape, so Go quoting spells it as JSON does.
func (m MemorySystem) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(make([]byte, 0, 16), m.String()), nil
}

// UnmarshalJSON accepts the names MarshalJSON produces. A name quoted
// plainly, as MarshalJSON writes it, is matched in place, without a decode.
func (m *MemorySystem) UnmarshalJSON(b []byte) error {
	for _, v := range []MemorySystem{CacheBased, HybridIdeal, HybridReal} {
		if n := len(b); n >= 2 && b[0] == '"' && b[n-1] == '"' && string(b[1:n-1]) == v.String() {
			*m = v
			return nil
		}
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, v := range []MemorySystem{CacheBased, HybridIdeal, HybridReal} {
		if v.String() == s {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("config: unknown memory system %q", s)
}

// ParseMemorySystem maps a user-facing name to its MemorySystem. It accepts
// the canonical String() names plus "ideal", the short form every CLI flag
// and API query parameter uses for HybridIdeal.
func ParseMemorySystem(name string) (MemorySystem, error) {
	switch name {
	case "cache":
		return CacheBased, nil
	case "hybrid":
		return HybridReal, nil
	case "ideal", "hybrid-ideal":
		return HybridIdeal, nil
	default:
		return 0, fmt.Errorf("config: unknown memory system %q (want cache, hybrid or ideal)", name)
	}
}

// Config holds every machine parameter. Sizes are bytes unless suffixed.
type Config struct {
	System MemorySystem

	// Cores and pipeline (Table 1, "Cores" / "Pipeline" / "Execution").
	Cores         int // 64
	MeshWidth     int // 8
	MeshHeight    int // 8
	IssueWidth    int // 6 instructions wide
	PipelineDepth int // 13 cycles front end (flush penalty)
	ROBEntries    int // 160
	IQEntries     int // 64
	LQEntries     int // 48
	SQEntries     int // 32
	// CoreMLP approximates the memory-level parallelism the 160-entry ROB
	// extracts from dependent code: how many loads may be outstanding
	// before issue stalls. (Full dependence tracking is out of scope; see
	// DESIGN.md §2.)
	CoreMLP int

	// L1 caches.
	L1ILatency  int // 2 cycles
	L1ISize     int // 32 KB
	L1IAssoc    int // 4
	L1DLatency  int // 2 cycles
	L1DSize     int // 32 KB (64 KB for CacheBased, applied by Normalize)
	L1DAssoc    int // 4
	LineSize    int // 64 B
	MSHREntries int // outstanding L1 misses per core

	// Stride prefetcher attached to the L1D.
	PrefetchDegree   int // lines fetched ahead on a detected stream
	PrefetchTableSz  int // tracked streams per core
	PrefetchDistance int // lines of lookahead before steady state

	// Shared L2 NUCA (sliced per core).
	L2Latency   int // 15 cycles
	L2SliceSize int // 256 KB per core
	L2Assoc     int // 16

	// Cache directory.
	DirEntriesPerSlice int // 64K total / cores
	DirAssoc           int // 4

	// TLB (hybrid SPM accesses bypass it entirely).
	TLBLatency int // cycles added on the L1 path for GM accesses
	TLBEntries int
	TLBMissLat int // page-walk cost

	// NoC.
	LinkLatency   int // 1 cycle
	RouterLatency int // 1 cycle
	FlitBytes     int // link width; packets serialize into flits
	LinkBandwidth int // flits accepted per link per cycle

	// DRAM.
	MemControllers int
	MemLatency     int // fixed access latency, cycles
	MemCyclesPerLn int // inverse bandwidth: cycles per 64B line per controller

	// SPM + DMA (hybrid only).
	SPMLatency    int // 2 cycles
	SPMSize       int // 32 KB
	DMACmdQueue   int // 32 entries
	DMABusQueue   int // 512 entries
	DMALineCycles int // issue rate: cycles between line-granule bus requests

	// Coherence-protocol structures (the paper's contribution).
	SPMDirEntries    int // 32
	FilterEntries    int // 48, fully associative, pseudoLRU
	FilterDirEntries int // 4K, distributed across slices, fully associative
}

// Default returns the Table 1 machine (hybrid with the real protocol).
func Default() Config {
	return Config{
		System:        HybridReal,
		Cores:         64,
		MeshWidth:     8,
		MeshHeight:    8,
		IssueWidth:    6,
		PipelineDepth: 13,
		ROBEntries:    160,
		IQEntries:     64,
		LQEntries:     48,
		SQEntries:     32,
		CoreMLP:       8,

		L1ILatency:  2,
		L1ISize:     32 << 10,
		L1IAssoc:    4,
		L1DLatency:  2,
		L1DSize:     32 << 10,
		L1DAssoc:    4,
		LineSize:    64,
		MSHREntries: 64,

		PrefetchDegree:   2,
		PrefetchTableSz:  32,
		PrefetchDistance: 8,

		L2Latency:   15,
		L2SliceSize: 32 << 10, // 256KB/core in the paper, scaled with the
		// workload footprints (DESIGN.md §5) so the footprint:LLC ratio
		// of Table 2 is preserved
		L2Assoc: 16,

		DirEntriesPerSlice: 64 << 10 / 64,
		DirAssoc:           4,

		TLBLatency: 1,
		TLBEntries: 64,
		TLBMissLat: 30,

		LinkLatency:   1,
		RouterLatency: 1,
		FlitBytes:     32,
		LinkBandwidth: 4,

		MemControllers: 16,
		MemLatency:     100,
		MemCyclesPerLn: 1,

		SPMLatency:    2,
		SPMSize:       32 << 10,
		DMACmdQueue:   32,
		DMABusQueue:   512,
		DMALineCycles: 1,

		SPMDirEntries:    32,
		FilterEntries:    48,
		FilterDirEntries: 4 << 10,
	}
}

// ForSystem returns the default machine configured as the given system,
// applying the paper's fairness rule (CacheBased gets a 64 KB L1D matching
// the hybrid's 32 KB L1D + 32 KB SPM, at unchanged latency).
func ForSystem(sys MemorySystem) Config {
	c := Default()
	c.System = sys
	if sys == CacheBased {
		c.L1DSize = 64 << 10
	}
	return c
}

// SmallTest returns a scaled-down machine for unit tests: 4 cores, small
// caches, same structure. Protocol state machines are identical.
func SmallTest() Config {
	c := Default()
	c.Cores = 4
	c.MeshWidth = 2
	c.MeshHeight = 2
	c.L1DSize = 4 << 10
	c.L1ISize = 4 << 10
	c.L2SliceSize = 16 << 10
	c.SPMSize = 4 << 10
	c.DirEntriesPerSlice = 1 << 10
	c.FilterEntries = 8
	c.FilterDirEntries = 64
	c.SPMDirEntries = 8
	c.MemControllers = 1
	return c
}

// HasSPM reports whether this configuration includes scratchpads.
func (c Config) HasSPM() bool { return c.System != CacheBased }

// IdealCoherence reports whether guarded accesses are resolved by an oracle.
func (c Config) IdealCoherence() bool { return c.System == HybridIdeal }

// Validate checks structural invariants; models assume these hold.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return errors.New("config: Cores must be positive")
	}
	if c.MeshWidth*c.MeshHeight != c.Cores {
		return fmt.Errorf("config: mesh %dx%d does not cover %d cores",
			c.MeshWidth, c.MeshHeight, c.Cores)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("config: LineSize %d must be a power of two", c.LineSize)
	}
	for _, p := range []struct {
		name      string
		size, ass int
	}{
		{"L1I", c.L1ISize, c.L1IAssoc},
		{"L1D", c.L1DSize, c.L1DAssoc},
		{"L2 slice", c.L2SliceSize, c.L2Assoc},
	} {
		if p.size <= 0 || p.ass <= 0 {
			return fmt.Errorf("config: %s size/assoc must be positive", p.name)
		}
		sets := p.size / (p.ass * c.LineSize)
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s sets %d must be a power of two", p.name, sets)
		}
	}
	if c.HasSPM() {
		if c.SPMSize <= 0 || c.SPMSize%c.LineSize != 0 {
			return fmt.Errorf("config: SPMSize %d must be a positive multiple of LineSize", c.SPMSize)
		}
		if c.SPMDirEntries <= 0 || c.FilterEntries <= 0 || c.FilterDirEntries <= 0 {
			return errors.New("config: protocol structure sizes must be positive")
		}
		if c.DMACmdQueue <= 0 || c.DMABusQueue <= 0 {
			return errors.New("config: DMA queue sizes must be positive")
		}
	}
	if c.MemControllers <= 0 {
		return errors.New("config: MemControllers must be positive")
	}
	if c.FlitBytes <= 0 {
		return errors.New("config: FlitBytes must be positive")
	}
	if c.LinkBandwidth <= 0 {
		return errors.New("config: LinkBandwidth must be positive")
	}
	if c.IssueWidth <= 0 || c.ROBEntries <= 0 || c.LQEntries <= 0 || c.SQEntries <= 0 {
		return errors.New("config: pipeline parameters must be positive")
	}
	// Capacity knobs an Overrides can now reach directly: a zero here wires a
	// machine that deadlocks (no MSHRs, no issue window) or divides by zero,
	// so fail fast instead.
	for _, p := range []struct {
		name string
		v    int
	}{
		{"MSHREntries", c.MSHREntries},
		{"CoreMLP", c.CoreMLP},
		{"IQEntries", c.IQEntries},
		{"TLBEntries", c.TLBEntries},
		{"PrefetchDegree", c.PrefetchDegree},
		{"PrefetchTableSz", c.PrefetchTableSz},
		{"PrefetchDistance", c.PrefetchDistance},
		{"MemCyclesPerLn", c.MemCyclesPerLn},
	} {
		if p.v <= 0 {
			return fmt.Errorf("config: %s %d must be positive", p.name, p.v)
		}
	}
	// Latencies may legitimately be zero (a free structure) but never
	// negative — a negative latency schedules events into the past.
	for _, p := range []struct {
		name string
		v    int
	}{
		{"L1ILatency", c.L1ILatency},
		{"L1DLatency", c.L1DLatency},
		{"L2Latency", c.L2Latency},
		{"TLBLatency", c.TLBLatency},
		{"TLBMissLat", c.TLBMissLat},
		{"LinkLatency", c.LinkLatency},
		{"RouterLatency", c.RouterLatency},
		{"MemLatency", c.MemLatency},
		{"SPMLatency", c.SPMLatency},
		{"DMALineCycles", c.DMALineCycles},
	} {
		if p.v < 0 {
			return fmt.Errorf("config: %s %d must not be negative", p.name, p.v)
		}
	}
	return nil
}
