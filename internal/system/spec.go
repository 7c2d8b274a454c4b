package system

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// DefaultSeed is the workload-generation seed used by every exhibit of the
// evaluation; fixing it makes each run a pure function of its Spec.
const DefaultSeed = 0xC0FFEE

// Spec declares one simulation run as a plain value: which machine, which
// benchmark, at what scale, with which overrides. A Spec carries no wired
// hardware, so it can be enumerated, hashed (Key), scheduled across workers,
// and cached before anything is built. Execute turns it into Results.
//
// The machine parameter space is open: Overrides can retarget any knob of
// config.Config by name (the registry in config.Knobs()), so sweeps over
// cache sizes, NoC bandwidth, DRAM latency, prefetch degree, DMA queue
// depths, etc. need no Go-code changes anywhere in the stack.
// The workload space is equally open: Benchmark names any entry of the
// workloads registry (workloads.Names()), and Params narrows that entry's
// typed parameter set, so sweeps over strides, footprints, localities and
// tree arities compose with the machine axes end-to-end.
type Spec struct {
	System    config.MemorySystem
	Benchmark string // a workloads registry name: CG, EP, ..., stream, gups
	Scale     workloads.Scale

	// Params is a sparse "name=value[,name=value]" assignment over the
	// workload's declared parameters (workloads.Lookup(Benchmark).Params);
	// empty keeps every default. It is a string rather than a map to keep
	// Spec comparable and map-key-safe; Key and Hash canonicalize it
	// (declaration order, defaults dropped), so equivalent spellings share
	// one cache address.
	Params string

	// Overrides retargets any subset of the machine's ~40 knobs relative to
	// the Table 1 defaults of ForSystem(System). Zero-valued knobs are
	// unset. All-int fields keep Spec comparable and map-key-safe.
	Overrides config.Overrides

	// Cores is a legacy shim predating Overrides: when > 0 it folds into
	// Overrides.Cores at resolve time, so old JSON bodies, CLI flags and
	// cache identities keep working. The mesh is re-dimensioned to match
	// unless mesh_width/mesh_height are overridden explicitly.
	Cores int

	// Seed overrides the workload-generation seed when != 0.
	Seed uint64

	// FilterEntries is the second legacy shim (the knob DESIGN.md's
	// Ablation A sweeps); when > 0 it folds into Overrides.FilterEntries.
	FilterEntries int

	// MaxEvents bounds the run (0 = unbounded); exceeding it is an error.
	MaxEvents uint64
}

// seed resolves the effective workload seed.
func (s Spec) seed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return DefaultSeed
}

// resolved folds the legacy Cores/FilterEntries shims into the Overrides,
// which afterwards is the single source of machine-knob truth. An explicit
// Overrides field wins over its legacy twin (Validate rejects the
// conflicting case, so the precedence only decides error messages).
func (s Spec) resolved() config.Overrides {
	ov := s.Overrides
	if s.Cores > 0 && ov.Cores == 0 {
		ov.Cores = s.Cores
	}
	if s.FilterEntries > 0 && ov.FilterEntries == 0 {
		ov.FilterEntries = s.FilterEntries
	}
	return ov
}

// ParamDiff returns, in canonical declaration order, every workload
// parameter that differs from its registry default — the segments Key
// renders, the "wparam" lines Hash encodes, and the columns a sweep sink
// prints. A Spec whose Params cannot be parsed or validated yields a nil
// diff and ok=false; Validate rejects such Specs before they can run or
// mint a cache identity.
func (s Spec) ParamDiff() ([]workloads.ParamValue, bool) {
	if strings.TrimSpace(s.Params) == "" {
		// Every parameter at its default: the diff is empty for any
		// known workload.
		_, ok := workloads.Lookup(s.Benchmark)
		return nil, ok
	}
	p, err := workloads.ParseParams(s.Params)
	if err != nil {
		return nil, false
	}
	diff, err := workloads.DiffParams(s.Benchmark, p)
	if err != nil {
		return nil, false
	}
	return diff, true
}

// ResolvedParam resolves one workload parameter to the value this run uses
// (the override if set, the registry default otherwise). ok is false when
// the workload does not declare the parameter or the Spec's Params are
// invalid.
func (s Spec) ResolvedParam(name string) (int, bool) {
	p, err := workloads.ParseParams(s.Params)
	if err != nil {
		return 0, false
	}
	full, err := workloads.ResolveParams(s.Benchmark, p)
	if err != nil {
		return 0, false
	}
	v, ok := full[name]
	return v, ok
}

// workloadLabel renders the benchmark with its non-default parameters in
// the CLI's "name:k=v,k2=v2" spelling — the first segment of Key. An
// invalid Params payload renders with a "!" marker; it still labels the
// Spec deterministically, but Validate prevents such Specs from running.
func (s Spec) workloadLabel() string {
	diff, ok := s.ParamDiff()
	if !ok {
		return s.Benchmark + ":!" + s.Params
	}
	if len(diff) == 0 {
		return s.Benchmark
	}
	parts := make([]string, len(diff))
	for i, pv := range diff {
		parts[i] = fmt.Sprintf("%s=%d", pv.Name, pv.Value)
	}
	return s.Benchmark + ":" + strings.Join(parts, ",")
}

// KnobDiff returns, in canonical registry order, every knob of the
// materialized machine (Spec.Config()) that differs from the ForSystem
// defaults — the identity Key and Hash encode, and the columns a sweep
// sink prints (report.SweepCSV). Diffing the materialized Config rather
// than the sparse override list matters for correctness: a core-count
// change drags derived adjustments along (mesh re-dimensioning, the
// memory-controller cap), and an explicit override spelled at a default
// value can suppress such an adjustment — so only the final machine says
// whether two Specs name the same run.
func (s Spec) KnobDiff() []config.KnobValue {
	return config.ConfigDiff(s.Config(), *systemDefault(s.System))
}

// Key is a stable, human-readable identity for the run — usable as a map
// key, a cache filename, or a progress label. Two Specs with equal Keys
// produce byte-identical Results; equivalent Specs (a zero field vs its
// explicit default, a legacy field vs its Overrides twin, an unset workload
// parameter vs its explicit default) share one Key. Non-default workload
// params render inside the first segment as "name:k=v"; non-default knobs
// render as "/name=value" in registry order.
func (s Spec) Key() string {
	k := fmt.Sprintf("%s/%s/%s", s.workloadLabel(), s.System, s.Scale)
	for _, kv := range s.KnobDiff() {
		k += fmt.Sprintf("/%s=%d", kv.Name, kv.Value)
	}
	if s.seed() != DefaultSeed {
		k += fmt.Sprintf("/s%x", s.seed())
	}
	if s.MaxEvents != 0 {
		k += fmt.Sprintf("/e%d", s.MaxEvents)
	}
	return k
}

// Hash is the canonical content address of the run: the SHA-256 (hex) of
// the normalized fixed-order "hybridsim-spec-v3" encoding — the scenario
// header, one "wparam name=value" line per workload parameter that differs
// from its registry default (in the workload's declaration order,
// ParamDiff), then one "knob name=value" line per knob of the materialized
// machine that differs from its Table 1 default, in config.Knobs() registry
// order (KnobDiff). Defaultable fields are resolved (seed) or dropped
// (knobs and params at their default value), so every spelling of one run —
// legacy Cores/FilterEntries, Overrides, derived mesh/controller
// adjustments written out by hand, or a workload parameter spelled at its
// default — collapses to one digest, and distinct runs never share one.
// DESIGN.md §8 documents the encoding; it is versioned, so any change to
// the field set bumps the prefix and old cache entries simply miss (v1 and
// v2 entries now do exactly that — v3 added the workload-parameter lines).
func (s Spec) Hash() string {
	var buf [512]byte
	b := append(buf[:0], "hybridsim-spec-v3\nsystem="...)
	b = append(b, s.System.String()...)
	b = append(b, "\nbenchmark="...)
	b = append(b, s.Benchmark...)
	b = append(b, "\nscale="...)
	b = append(b, s.Scale.String()...)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, s.seed(), 16)
	b = append(b, "\nmaxevents="...)
	b = strconv.AppendUint(b, s.MaxEvents, 10)
	b = append(b, '\n')
	if diff, ok := s.ParamDiff(); ok {
		for _, pv := range diff {
			b = append(b, "wparam "...)
			b = append(b, pv.Name...)
			b = append(b, '=')
			b = strconv.AppendInt(b, int64(pv.Value), 10)
			b = append(b, '\n')
		}
	} else {
		// Unvalidatable params cannot run, but the digest must still be
		// total and deterministic for error paths that label by Hash.
		b = append(b, "wparam!="...)
		b = append(b, s.Params...)
		b = append(b, '\n')
	}
	m, def := scratchPool.Get().(*configScratch), systemDefault(s.System)
	s.materialize(m)
	for _, k := range config.Knobs() {
		if v := *k.Field(&m.cfg); v != *k.Field(def) {
			b = append(b, "knob "...)
			b = append(b, k.Name...)
			b = append(b, '=')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, '\n')
		}
	}
	scratchPool.Put(m)
	sum := sha256.Sum256(b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// systemDefaults holds config.ForSystem of every known system, built once:
// every identity computation diffs against one of them.
var systemDefaults = [...]config.Config{
	config.CacheBased:  config.ForSystem(config.CacheBased),
	config.HybridIdeal: config.ForSystem(config.HybridIdeal),
	config.HybridReal:  config.ForSystem(config.HybridReal),
}

// systemDefault returns the Table 1 machine for sys. Callers must not
// mutate it.
func systemDefault(sys config.MemorySystem) *config.Config {
	if sys >= 0 && int(sys) < len(systemDefaults) {
		return &systemDefaults[sys]
	}
	def := config.ForSystem(sys)
	return &def
}

// specJSON is the wire form of a Spec. Overrides travels as a pointer so an
// all-default Spec serializes without an empty "overrides" object.
type specJSON struct {
	System        config.MemorySystem `json:"system"`
	Benchmark     string              `json:"benchmark"`
	Scale         workloads.Scale     `json:"scale"`
	Params        map[string]int      `json:"params,omitempty"`
	Overrides     *config.Overrides   `json:"overrides,omitempty"`
	Cores         int                 `json:"cores,omitempty"`
	Seed          uint64              `json:"seed,omitempty"`
	FilterEntries int                 `json:"filter_entries,omitempty"`
	MaxEvents     uint64              `json:"max_events,omitempty"`
}

// MarshalJSON encodes the Spec losslessly with the memory system and scale
// by name, so specs survive service requests and disk cache entries intact.
func (s Spec) MarshalJSON() ([]byte, error) {
	sj := specJSON{
		System:        s.System,
		Benchmark:     s.Benchmark,
		Scale:         s.Scale,
		Cores:         s.Cores,
		Seed:          s.Seed,
		FilterEntries: s.FilterEntries,
		MaxEvents:     s.MaxEvents,
	}
	if !s.Overrides.IsZero() {
		ov := s.Overrides
		sj.Overrides = &ov
	}
	if s.Params != "" {
		p, err := workloads.ParseParams(s.Params)
		if err != nil {
			return nil, fmt.Errorf("system: bad workload params %q: %w", s.Params, err)
		}
		sj.Params = p
	}
	return json.Marshal(sj)
}

// UnmarshalJSON decodes what MarshalJSON produces, rejecting unknown fields
// and validating the Spec (unknown benchmarks, unbuildable machines) at
// decode time — a service must fail a bad request before queueing it.
func (s *Spec) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sj specJSON
	if err := dec.Decode(&sj); err != nil {
		return fmt.Errorf("system: bad spec: %w", err)
	}
	decoded := Spec{
		System:        sj.System,
		Benchmark:     sj.Benchmark,
		Scale:         sj.Scale,
		Cores:         sj.Cores,
		Seed:          sj.Seed,
		FilterEntries: sj.FilterEntries,
		MaxEvents:     sj.MaxEvents,
	}
	if sj.Overrides != nil {
		decoded.Overrides = *sj.Overrides
	}
	// JSON objects carry no order, so the decoded assignment is rendered
	// in the workload's canonical declaration order — one spelling per
	// assignment, whatever the wire ordering was.
	decoded.Params = workloads.FormatParams(sj.Benchmark, sj.Params)
	if err := decoded.Validate(); err != nil {
		return err
	}
	*s = decoded
	return nil
}

// Config materializes the machine configuration the Spec describes: Table 1
// defaults for the system, every override applied, and — when the core
// count changes without an explicit mesh override — the mesh, memory
// controllers and FilterDir re-dimensioned exactly as the legacy shrink
// path did, so legacy and Overrides spellings build identical machines.
func (s Spec) Config() config.Config {
	var m configScratch
	s.materialize(&m)
	return m.cfg
}

// configScratch is the space Config materializes into. The knob accessors
// make both fields escape, so Hash recycles scratches through scratchPool
// instead of allocating one per call.
type configScratch struct {
	cfg config.Config
	ov  config.Overrides
}

var scratchPool = sync.Pool{New: func() any { return new(configScratch) }}

func (s Spec) materialize(m *configScratch) {
	def := systemDefault(s.System)
	m.cfg = *def
	m.ov = s.resolved()
	m.ov.Apply(&m.cfg)
	if m.ov.Cores > 0 && m.ov.Cores != def.Cores {
		applyShrink(&m.cfg, &m.ov)
	}
}

// Validate reports whether the Spec names a buildable run.
func (s Spec) Validate() error {
	// Negative overrides would be ignored by Config (which treats <= 0 as
	// "default") yet still perturb the wire form — reject them before they
	// can mint a bogus cache identity.
	if s.Cores < 0 {
		return fmt.Errorf("system: negative core count %d", s.Cores)
	}
	if s.FilterEntries < 0 {
		return fmt.Errorf("system: negative filter size %d", s.FilterEntries)
	}
	if err := s.Overrides.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	// A legacy shim and its Overrides twin naming different values is a
	// contradiction, not a precedence question.
	if s.Cores > 0 && s.Overrides.Cores > 0 && s.Cores != s.Overrides.Cores {
		return fmt.Errorf("system: cores %d conflicts with overrides cores %d", s.Cores, s.Overrides.Cores)
	}
	if s.FilterEntries > 0 && s.Overrides.FilterEntries > 0 && s.FilterEntries != s.Overrides.FilterEntries {
		return fmt.Errorf("system: filter_entries %d conflicts with overrides filter_entries %d",
			s.FilterEntries, s.Overrides.FilterEntries)
	}
	// The workload and its parameters validate against the registry —
	// unknown names, undeclared or out-of-range params, and unparsable
	// payloads all fail here, before anything is queued or hashed into a
	// cache identity.
	if _, ok := workloads.Lookup(s.Benchmark); !ok {
		return fmt.Errorf("system: unknown benchmark %q (want one of %v)", s.Benchmark, workloads.Names())
	}
	p, err := workloads.ParseParams(s.Params)
	if err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if err := workloads.ValidateParams(s.Benchmark, p); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	return s.Config().Validate()
}

// ExecuteContext builds the machine, runs the benchmark to completion, and
// returns the measurements. Each call wires a fresh single-threaded engine,
// so concurrent runs of different Specs are independent and race-free. The
// engine polls ctx between event batches, so client disconnects and
// per-request deadlines stop a simulation mid-run instead of burning the
// rest of it.
func (s Spec) ExecuteContext(ctx context.Context) (Results, error) {
	r, _, err := s.executeOn(ctx, nil, false)
	return r, err
}

// ExecuteObserved is ExecuteContext with observers. rec (if non-nil) is
// attached to the machine before the run, so it samples counters and/or
// traces events while the benchmark executes; after the run, the counters
// are snapshotted (Machine.CounterSnapshot) — the full-fidelity input the
// analysis rules want. Observation never feeds back into simulated
// behavior — Results are identical to ExecuteContext's — so it is
// deliberately not part of the Spec (and thus not part of the cache
// identity): it describes how to watch a run, not which run to do.
func (s Spec) ExecuteObserved(ctx context.Context, rec *telemetry.Recorder) (Results, map[string]uint64, error) {
	return s.executeOn(ctx, rec, true)
}

// executeOn is the shared run path: validate, build the workload and the
// machine, optionally attach an observer, run, optionally snapshot counters.
func (s Spec) executeOn(ctx context.Context, rec *telemetry.Recorder, snapshot bool) (Results, map[string]uint64, error) {
	if err := s.Validate(); err != nil {
		return Results{}, nil, err
	}
	p, _ := workloads.ParseParams(s.Params) // Validate just accepted it
	bench, err := workloads.BuildSpec(s.Benchmark, p, s.Scale)
	if err != nil {
		return Results{}, nil, err
	}
	m, err := Build(s.Config(), bench, s.seed())
	if err != nil {
		return Results{}, nil, err
	}
	if rec != nil {
		m.Attach(rec)
	}
	r, err := m.RunContext(ctx, s.MaxEvents)
	if err != nil || !snapshot {
		return r, nil, err
	}
	return r, m.CounterSnapshot(), nil
}
