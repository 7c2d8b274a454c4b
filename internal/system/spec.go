package system

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/config"
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

	// Seed overrides the workload-generation seed when != 0.
	Seed uint64

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
// explicit default, an unset knob or workload parameter vs its explicit
// default) share one Key. Non-default workload params render inside the
// first segment as "name:k=v"; non-default knobs render as "/name=value" in
// registry order.
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
// the normalized fixed-order "hybridsim-spec-v4" encoding — the scenario
// header, one "wparam name=value" line per workload parameter that differs
// from its registry default (in the workload's declaration order,
// ParamDiff), then one "knob name=value" line per knob of the materialized
// machine that differs from its Table 1 default, in config.Knobs() registry
// order (KnobDiff). Defaultable fields are resolved (seed) or dropped
// (knobs and params at their default value), so every spelling of one run —
// the top-level "cores"/"filter_entries" wire aliases, Overrides, derived
// mesh/controller adjustments written out by hand, or a workload parameter
// spelled at its default — collapses to one digest, and distinct runs never
// share one. DESIGN.md §8 documents the encoding; it is versioned, so any
// change to the field set or to run semantics bumps the prefix and old
// cache entries simply miss (v3 added the workload-parameter lines; v4
// marks the NoC's route reservation at injection, which changed every
// run's timing).
func (s Spec) Hash() string {
	var buf [512]byte
	b := append(buf[:0], "hybridsim-spec-v4\nsystem="...)
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

// specJSON is the decode form of a Spec. Overrides decodes into a value
// field that the wire pointer is aimed at before each decode, so a Spec
// with overrides costs no allocation for them while a later "overrides":
// null still clears them. Cores and FilterEntries are decode-only aliases
// for their Overrides twins (older request bodies send them top-level).
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

	ov config.Overrides
}

// MarshalJSON encodes the Spec losslessly with the memory system and scale
// by name, so specs survive service requests and disk cache entries intact.
// It appends the fields in the order and spelling encoding/json gives the
// specJSON struct (params sorted by name, zero fields omitted); overrides
// are written by walking the knob registry, whose order is the struct's.
func (s Spec) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = append(b, `{"system":`...)
	b = appendString(b, s.System.String())
	b = append(b, `,"benchmark":`...)
	b = appendString(b, s.Benchmark)
	b = append(b, `,"scale":`...)
	b = appendString(b, s.Scale.String())
	if s.Params != "" {
		p, err := workloads.ParseParams(s.Params)
		if err != nil {
			return nil, fmt.Errorf("system: bad workload params %q: %w", s.Params, err)
		}
		if len(p) > 0 {
			names := make([]string, 0, len(p))
			for name := range p {
				names = append(names, name)
			}
			sort.Strings(names)
			b = append(b, `,"params":{`...)
			for i, name := range names {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, name)
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(p[name]), 10)
			}
			b = append(b, '}')
		}
	}
	if !s.Overrides.IsZero() {
		m := scratchPool.Get().(*configScratch)
		m.ov = s.Overrides
		sep := byte('{')
		b = append(b, `,"overrides":`...)
		for _, k := range config.Knobs() {
			if v := *k.Over(&m.ov); v != 0 {
				b = append(b, sep, '"')
				b = append(b, k.Name...)
				b = append(b, '"', ':')
				b = strconv.AppendInt(b, int64(v), 10)
				sep = ','
			}
		}
		scratchPool.Put(m)
		b = append(b, '}')
	}
	if s.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, s.Seed, 10)
	}
	if s.MaxEvents != 0 {
		b = append(b, `,"max_events":`...)
		b = strconv.AppendUint(b, s.MaxEvents, 10)
	}
	return append(b, '}'), nil
}

// appendString appends str as a JSON string spelled as encoding/json
// spells it: printable ASCII is copied as is, and a string holding
// anything it would escape (quotes, backslashes, control, HTML-sensitive
// or non-ASCII bytes) goes through json.Marshal.
func appendString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(str)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

// UnmarshalJSON decodes what MarshalJSON produces, rejecting unknown fields
// and validating the Spec (unknown benchmarks, unbuildable machines) at
// decode time — a service must fail a bad request before queueing it. The
// top-level "cores" and "filter_entries" aliases fold into Overrides; a
// negative alias, or one contradicting its "overrides" twin, is rejected.
func (s *Spec) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sj specJSON
	sj.Overrides = &sj.ov
	if err := dec.Decode(&sj); err != nil {
		return fmt.Errorf("system: bad spec: %w", err)
	}
	decoded := Spec{
		System:    sj.System,
		Benchmark: sj.Benchmark,
		Scale:     sj.Scale,
		Seed:      sj.Seed,
		MaxEvents: sj.MaxEvents,
	}
	if sj.Overrides != nil {
		decoded.Overrides = *sj.Overrides
	}
	for _, alias := range [...]struct {
		name string
		v    int
		ov   *int
	}{
		{"cores", sj.Cores, &decoded.Overrides.Cores},
		{"filter_entries", sj.FilterEntries, &decoded.Overrides.FilterEntries},
	} {
		switch {
		case alias.v < 0:
			return fmt.Errorf("system: negative %s %d", alias.name, alias.v)
		case alias.v > 0 && *alias.ov > 0 && alias.v != *alias.ov:
			return fmt.Errorf("system: %s %d conflicts with overrides %s %d", alias.name, alias.v, alias.name, *alias.ov)
		case alias.v > 0:
			*alias.ov = alias.v
		}
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
// controllers and FilterDir re-dimensioned to match (applyShrink).
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
	m.ov = s.Overrides
	m.ov.Apply(&m.cfg)
	if m.ov.Cores > 0 && m.ov.Cores != def.Cores {
		applyShrink(&m.cfg, &m.ov)
	}
}

// Validate reports whether the Spec names a buildable run. It checks the
// overrides and the machine in a pooled scratch, as Hash does, so a
// decode-time validation costs no heap copy of either.
func (s Spec) Validate() error {
	m := scratchPool.Get().(*configScratch)
	defer scratchPool.Put(m)
	m.ov = s.Overrides
	if err := m.ov.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	// The workload and its parameters validate against the registry —
	// unknown names, undeclared or out-of-range params, and unparsable
	// payloads all fail here, before anything is queued or hashed into a
	// cache identity.
	if _, ok := workloads.Lookup(s.Benchmark); !ok {
		return fmt.Errorf("system: unknown benchmark %q (want one of %v)", s.Benchmark, workloads.Names())
	}
	var p map[string]int // all defaults: nothing to parse
	if strings.TrimSpace(s.Params) != "" {
		var err error
		if p, err = workloads.ParseParams(s.Params); err != nil {
			return fmt.Errorf("system: %w", err)
		}
	}
	if err := workloads.ValidateParams(s.Benchmark, p); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	s.materialize(m)
	return m.cfg.Validate()
}

// Build validates the Spec and wires the machine it names: the workload
// generated from Benchmark, Params and Scale, on the materialized Config,
// seeded by Seed. It is the one route from a Spec to a Machine; callers
// attach observers (Machine.Attach), run it (Machine.RunContext) and read
// its counters (Machine.CounterSnapshot) themselves. Observation never
// feeds back into simulated behavior, so it is not part of the Spec and
// not part of the cache identity.
func (s Spec) Build() (*Machine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p, _ := workloads.ParseParams(s.Params) // Validate just accepted it
	bench, err := workloads.BuildSpec(s.Benchmark, p, s.Scale)
	if err != nil {
		return nil, err
	}
	return Build(s.Config(), bench, s.seed())
}

// ExecuteContext builds the machine, runs the benchmark to completion, and
// returns the measurements. Each call wires a fresh single-threaded engine,
// so concurrent runs of different Specs are independent and race-free. The
// engine polls ctx between event batches, so client disconnects and
// per-request deadlines stop a simulation mid-run instead of burning the
// rest of it.
func (s Spec) ExecuteContext(ctx context.Context) (Results, error) {
	m, err := s.Build()
	if err != nil {
		return Results{}, err
	}
	return m.RunContext(ctx, s.MaxEvents)
}
