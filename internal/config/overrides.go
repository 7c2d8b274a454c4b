package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Overrides is a sparse, typed view of the machine parameter space: one
// optional field per Config knob, zero meaning "keep the ForSystem default".
// It is the unit the run-declaration API (system.Spec), the sweep axes
// (runner.Axes) and the service wire all share, so any scenario a Config can
// express is reachable without editing Go code. Every knob is a positive
// integer, which is why 0 can double as "unset"; a knob whose meaningful
// range included 0 would need a pointer field instead.
//
// Overrides contains only comparable value fields, so structs embedding it
// (system.Spec) stay usable as map keys and comparable with ==.
type Overrides struct {
	Cores         int `json:"cores,omitempty"`
	MeshWidth     int `json:"mesh_width,omitempty"`
	MeshHeight    int `json:"mesh_height,omitempty"`
	IssueWidth    int `json:"issue_width,omitempty"`
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	ROBEntries    int `json:"rob_entries,omitempty"`
	IQEntries     int `json:"iq_entries,omitempty"`
	LQEntries     int `json:"lq_entries,omitempty"`
	SQEntries     int `json:"sq_entries,omitempty"`
	CoreMLP       int `json:"core_mlp,omitempty"`

	L1ILatency  int `json:"l1i_latency,omitempty"`
	L1ISize     int `json:"l1i_size,omitempty"`
	L1IAssoc    int `json:"l1i_assoc,omitempty"`
	L1DLatency  int `json:"l1d_latency,omitempty"`
	L1DSize     int `json:"l1d_size,omitempty"`
	L1DAssoc    int `json:"l1d_assoc,omitempty"`
	LineSize    int `json:"line_size,omitempty"`
	MSHREntries int `json:"mshr_entries,omitempty"`

	PrefetchDegree   int `json:"prefetch_degree,omitempty"`
	PrefetchTableSz  int `json:"prefetch_table,omitempty"`
	PrefetchDistance int `json:"prefetch_distance,omitempty"`

	L2Latency   int `json:"l2_latency,omitempty"`
	L2SliceSize int `json:"l2_slice_size,omitempty"`
	L2Assoc     int `json:"l2_assoc,omitempty"`

	DirEntriesPerSlice int `json:"dir_entries_per_slice,omitempty"`
	DirAssoc           int `json:"dir_assoc,omitempty"`

	TLBLatency int `json:"tlb_latency,omitempty"`
	TLBEntries int `json:"tlb_entries,omitempty"`
	TLBMissLat int `json:"tlb_miss_latency,omitempty"`

	LinkLatency   int `json:"link_latency,omitempty"`
	RouterLatency int `json:"router_latency,omitempty"`
	FlitBytes     int `json:"flit_bytes,omitempty"`
	LinkBandwidth int `json:"link_bandwidth,omitempty"`

	MemControllers int `json:"mem_controllers,omitempty"`
	MemLatency     int `json:"mem_latency,omitempty"`
	MemCyclesPerLn int `json:"mem_cycles_per_line,omitempty"`

	SPMLatency    int `json:"spm_latency,omitempty"`
	SPMSize       int `json:"spm_size,omitempty"`
	DMACmdQueue   int `json:"dma_cmd_queue,omitempty"`
	DMABusQueue   int `json:"dma_bus_queue,omitempty"`
	DMALineCycles int `json:"dma_line_cycles,omitempty"`

	SPMDirEntries    int `json:"spmdir_entries,omitempty"`
	FilterEntries    int `json:"filter_entries,omitempty"`
	FilterDirEntries int `json:"filterdir_entries,omitempty"`
}

// Knob is one entry of the machine-parameter registry: a stable wire name
// plus accessors into both Config and Overrides, so applying, enumerating,
// parsing and diffing overrides are table loops instead of per-field code
// scattered across callers.
type Knob struct {
	// Name is the stable snake_case identifier used in JSON, -set/-sweep
	// flags, query parameters, Spec.Key() and the v2 hash encoding.
	Name string
	// Field returns the knob's slot in a Config.
	Field func(*Config) *int
	// Over returns the knob's slot in an Overrides.
	Over func(*Overrides) *int
}

// knobs is the registry, in the fixed order the v2 hash encoding and every
// enumeration (Key, Diff, sweep CSV columns) use. Append-only: reordering or
// renaming entries changes canonical hashes and requires a version bump in
// system.Spec.Hash (DESIGN.md §8).
var knobs = []Knob{
	{"cores", func(c *Config) *int { return &c.Cores }, func(o *Overrides) *int { return &o.Cores }},
	{"mesh_width", func(c *Config) *int { return &c.MeshWidth }, func(o *Overrides) *int { return &o.MeshWidth }},
	{"mesh_height", func(c *Config) *int { return &c.MeshHeight }, func(o *Overrides) *int { return &o.MeshHeight }},
	{"issue_width", func(c *Config) *int { return &c.IssueWidth }, func(o *Overrides) *int { return &o.IssueWidth }},
	{"pipeline_depth", func(c *Config) *int { return &c.PipelineDepth }, func(o *Overrides) *int { return &o.PipelineDepth }},
	{"rob_entries", func(c *Config) *int { return &c.ROBEntries }, func(o *Overrides) *int { return &o.ROBEntries }},
	{"iq_entries", func(c *Config) *int { return &c.IQEntries }, func(o *Overrides) *int { return &o.IQEntries }},
	{"lq_entries", func(c *Config) *int { return &c.LQEntries }, func(o *Overrides) *int { return &o.LQEntries }},
	{"sq_entries", func(c *Config) *int { return &c.SQEntries }, func(o *Overrides) *int { return &o.SQEntries }},
	{"core_mlp", func(c *Config) *int { return &c.CoreMLP }, func(o *Overrides) *int { return &o.CoreMLP }},
	{"l1i_latency", func(c *Config) *int { return &c.L1ILatency }, func(o *Overrides) *int { return &o.L1ILatency }},
	{"l1i_size", func(c *Config) *int { return &c.L1ISize }, func(o *Overrides) *int { return &o.L1ISize }},
	{"l1i_assoc", func(c *Config) *int { return &c.L1IAssoc }, func(o *Overrides) *int { return &o.L1IAssoc }},
	{"l1d_latency", func(c *Config) *int { return &c.L1DLatency }, func(o *Overrides) *int { return &o.L1DLatency }},
	{"l1d_size", func(c *Config) *int { return &c.L1DSize }, func(o *Overrides) *int { return &o.L1DSize }},
	{"l1d_assoc", func(c *Config) *int { return &c.L1DAssoc }, func(o *Overrides) *int { return &o.L1DAssoc }},
	{"line_size", func(c *Config) *int { return &c.LineSize }, func(o *Overrides) *int { return &o.LineSize }},
	{"mshr_entries", func(c *Config) *int { return &c.MSHREntries }, func(o *Overrides) *int { return &o.MSHREntries }},
	{"prefetch_degree", func(c *Config) *int { return &c.PrefetchDegree }, func(o *Overrides) *int { return &o.PrefetchDegree }},
	{"prefetch_table", func(c *Config) *int { return &c.PrefetchTableSz }, func(o *Overrides) *int { return &o.PrefetchTableSz }},
	{"prefetch_distance", func(c *Config) *int { return &c.PrefetchDistance }, func(o *Overrides) *int { return &o.PrefetchDistance }},
	{"l2_latency", func(c *Config) *int { return &c.L2Latency }, func(o *Overrides) *int { return &o.L2Latency }},
	{"l2_slice_size", func(c *Config) *int { return &c.L2SliceSize }, func(o *Overrides) *int { return &o.L2SliceSize }},
	{"l2_assoc", func(c *Config) *int { return &c.L2Assoc }, func(o *Overrides) *int { return &o.L2Assoc }},
	{"dir_entries_per_slice", func(c *Config) *int { return &c.DirEntriesPerSlice }, func(o *Overrides) *int { return &o.DirEntriesPerSlice }},
	{"dir_assoc", func(c *Config) *int { return &c.DirAssoc }, func(o *Overrides) *int { return &o.DirAssoc }},
	{"tlb_latency", func(c *Config) *int { return &c.TLBLatency }, func(o *Overrides) *int { return &o.TLBLatency }},
	{"tlb_entries", func(c *Config) *int { return &c.TLBEntries }, func(o *Overrides) *int { return &o.TLBEntries }},
	{"tlb_miss_latency", func(c *Config) *int { return &c.TLBMissLat }, func(o *Overrides) *int { return &o.TLBMissLat }},
	{"link_latency", func(c *Config) *int { return &c.LinkLatency }, func(o *Overrides) *int { return &o.LinkLatency }},
	{"router_latency", func(c *Config) *int { return &c.RouterLatency }, func(o *Overrides) *int { return &o.RouterLatency }},
	{"flit_bytes", func(c *Config) *int { return &c.FlitBytes }, func(o *Overrides) *int { return &o.FlitBytes }},
	{"link_bandwidth", func(c *Config) *int { return &c.LinkBandwidth }, func(o *Overrides) *int { return &o.LinkBandwidth }},
	{"mem_controllers", func(c *Config) *int { return &c.MemControllers }, func(o *Overrides) *int { return &o.MemControllers }},
	{"mem_latency", func(c *Config) *int { return &c.MemLatency }, func(o *Overrides) *int { return &o.MemLatency }},
	{"mem_cycles_per_line", func(c *Config) *int { return &c.MemCyclesPerLn }, func(o *Overrides) *int { return &o.MemCyclesPerLn }},
	{"spm_latency", func(c *Config) *int { return &c.SPMLatency }, func(o *Overrides) *int { return &o.SPMLatency }},
	{"spm_size", func(c *Config) *int { return &c.SPMSize }, func(o *Overrides) *int { return &o.SPMSize }},
	{"dma_cmd_queue", func(c *Config) *int { return &c.DMACmdQueue }, func(o *Overrides) *int { return &o.DMACmdQueue }},
	{"dma_bus_queue", func(c *Config) *int { return &c.DMABusQueue }, func(o *Overrides) *int { return &o.DMABusQueue }},
	{"dma_line_cycles", func(c *Config) *int { return &c.DMALineCycles }, func(o *Overrides) *int { return &o.DMALineCycles }},
	{"spmdir_entries", func(c *Config) *int { return &c.SPMDirEntries }, func(o *Overrides) *int { return &o.SPMDirEntries }},
	{"filter_entries", func(c *Config) *int { return &c.FilterEntries }, func(o *Overrides) *int { return &o.FilterEntries }},
	{"filterdir_entries", func(c *Config) *int { return &c.FilterDirEntries }, func(o *Overrides) *int { return &o.FilterDirEntries }},
}

var knobByName = func() map[string]Knob {
	m := make(map[string]Knob, len(knobs))
	for _, k := range knobs {
		if _, dup := m[k.Name]; dup {
			panic("config: duplicate knob name " + k.Name)
		}
		m[k.Name] = k
	}
	return m
}()

// Knobs returns the registry in its fixed canonical order. The slice is
// shared; callers must not mutate it.
func Knobs() []Knob { return knobs }

// KnobNames lists every knob name in canonical order.
func KnobNames() []string {
	names := make([]string, len(knobs))
	for i, k := range knobs {
		names[i] = k.Name
	}
	return names
}

// KnobByName resolves a wire name to its registry entry.
func KnobByName(name string) (Knob, bool) {
	k, ok := knobByName[name]
	return k, ok
}

// KnobValue is one (knob, value) pair — the element of Diff results, sweep
// axes and the canonical hash encoding.
type KnobValue struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// Set assigns one knob by wire name. Values must be positive: every knob is
// a positive count/size/latency, and 0 is reserved for "unset".
func (o *Overrides) Set(name string, value int) error {
	k, ok := KnobByName(name)
	if !ok {
		return fmt.Errorf("config: unknown knob %q (want one of %v)", name, KnobNames())
	}
	if value <= 0 {
		return fmt.Errorf("config: knob %s=%d must be positive", name, value)
	}
	*k.Over(o) = value
	return nil
}

// IsZero reports whether no knob is overridden.
func (o Overrides) IsZero() bool { return o == Overrides{} }

// Validate rejects negative knob values, which can never name a machine and
// would otherwise be silently treated as "unset minus a perturbed wire form".
// It takes a pointer so that walking the registry copies nothing to the heap.
func (o *Overrides) Validate() error {
	for _, k := range knobs {
		if v := *k.Over(o); v < 0 {
			return fmt.Errorf("config: negative override %s=%d", k.Name, v)
		}
	}
	return nil
}

// Apply writes every set knob into c, leaving unset knobs at c's values.
func (o *Overrides) Apply(c *Config) {
	for _, k := range knobs {
		if v := *k.Over(o); v > 0 {
			*k.Field(c) = v
		}
	}
}

// List returns every set knob as (name, value) pairs in canonical registry
// order — the enumeration -set flags and ?set= parameters round-trip
// through.
func (o Overrides) List() []KnobValue {
	var out []KnobValue
	for _, k := range knobs {
		if v := *k.Over(&o); v > 0 {
			out = append(out, KnobValue{Name: k.Name, Value: v})
		}
	}
	return out
}

// ConfigDiff returns, in canonical registry order, every knob whose value
// in cfg differs from base. Identity always diffs two materialized Configs
// — never a sparse Overrides against a Config, which would miss derived
// adjustments (mesh re-dimensioning, controller caps) and could collapse
// distinct machines to one content address (DESIGN.md §8).
func ConfigDiff(cfg, base Config) []KnobValue {
	var out []KnobValue
	for _, k := range knobs {
		if v := *k.Field(&cfg); v != *k.Field(&base) {
			out = append(out, KnobValue{Name: k.Name, Value: v})
		}
	}
	return out
}

// ParseValue parses one knob or workload-parameter value: a plain integer
// ("4096"), a binary size suffix ("64k", "2m", "1g"), or integral
// scientific notation ("1e6"); a suffixed value too large for an int is
// rejected, not wrapped. Every value surface — -set, -sweep,
// -workload, -wsweep, and their query-parameter twins — accepts exactly
// this grammar, so a spelling that works on one flag works on all.
func ParseValue(s string) (int, error) {
	if v, err := strconv.Atoi(s); err == nil {
		return v, nil
	}
	if n := len(s); n > 1 {
		shift := 0
		switch s[n-1] {
		case 'k', 'K':
			shift = 10
		case 'm', 'M':
			shift = 20
		case 'g', 'G':
			shift = 30
		}
		if shift > 0 {
			if v, err := strconv.Atoi(s[:n-1]); err == nil && v<<shift>>shift == v {
				return v << shift, nil
			}
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && f == math.Trunc(f) &&
		f >= math.MinInt32 && f <= math.MaxInt32 {
		return int(f), nil
	}
	return 0, fmt.Errorf("not an integer (plain, k/m/g-suffixed, or integral scientific)")
}

// ParseAssignment parses one "name=value" string, the payload of a -set
// flag or a ?set= query parameter.
func ParseAssignment(s string) (name string, value int, err error) {
	name, raw, ok := strings.Cut(s, "=")
	if name = strings.TrimSpace(name); !ok || name == "" {
		return "", 0, fmt.Errorf("config: bad assignment %q (want name=value)", s)
	}
	v, err := ParseValue(strings.TrimSpace(raw))
	if err != nil {
		return "", 0, fmt.Errorf("config: bad value in %q: %w", s, err)
	}
	return name, v, nil
}

// ParseOverrides folds a list of "name=value" assignments into one
// Overrides, validating every name and value. Later assignments to the same
// knob win, like repeated flags usually do.
func ParseOverrides(assignments []string) (Overrides, error) {
	var o Overrides
	for _, a := range assignments {
		name, v, err := ParseAssignment(a)
		if err != nil {
			return Overrides{}, err
		}
		if err := o.Set(name, v); err != nil {
			return Overrides{}, err
		}
	}
	return o, nil
}
