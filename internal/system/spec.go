package system

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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
//
// A repeat of an equal Spec is answered from a bounded process-wide memo
// (hashMemo) instead of being encoded and hashed again; the digest is the
// same either way.
func (s Spec) Hash() string {
	hashMemo.Lock()
	h, ok := hashMemo.m[s]
	hashMemo.Unlock()
	if ok {
		return h
	}
	h = s.hash()
	hashMemo.Lock()
	if len(hashMemo.m) >= hashMemoSize {
		clear(hashMemo.m)
	}
	hashMemo.m[s] = h
	hashMemo.Unlock()
	return h
}

// hashMemoSize bounds hashMemo. An entry is a 416-byte Spec and its
// 64-byte digest, so a full memo holds about half a megabyte.
const hashMemoSize = 1024

// hashMemo maps each recently hashed Spec to its digest. Hash is a pure
// function of the Spec value (systemDefaults and the knob and workload
// registries are fixed for the life of the process), so a stored digest
// is always the one hash would compute. When the memo is full it is
// cleared, not aged: a miss only costs one hash.
var hashMemo = struct {
	sync.Mutex
	m map[Spec]string
}{m: map[Spec]string{}}

// hash computes Hash's digest from scratch: the v4 encoding appended into
// a stack buffer, then SHA-256.
func (s Spec) hash() string {
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
	obj, err := leadingObject(b)
	if err != nil {
		return fmt.Errorf("system: bad spec: %w", err)
	}
	var sj specJSON
	sj.Overrides = &sj.ov
	if err := json.Unmarshal(obj, &sj); err != nil {
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
	if err := foldAlias("cores", sj.Cores, &decoded.Overrides.Cores); err != nil {
		return err
	}
	if err := foldAlias("filter_entries", sj.FilterEntries, &decoded.Overrides.FilterEntries); err != nil {
		return err
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

// foldAlias folds the top-level alias name, decoded as v, into its
// Overrides twin ov.
func foldAlias(name string, v int, ov *int) error {
	switch {
	case v < 0:
		return fmt.Errorf("system: negative %s %d", name, v)
	case v > 0 && *ov > 0 && v != *ov:
		return fmt.Errorf("system: %s %d conflicts with overrides %s %d", name, v, name, *ov)
	case v > 0:
		*ov = v
	}
	return nil
}

// specFields and overrideFields are the wire names of specJSON's and
// config.Overrides' fields, read from their tags: the only keys a Spec
// body and its "overrides" object may carry.
var specFields, overrideFields = jsonFields(specJSON{}), jsonFields(config.Overrides{})

func jsonFields(v any) []string {
	t := reflect.TypeOf(v)
	var names []string
	for i := 0; i < t.NumField(); i++ {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// leadingObject returns the JSON object b starts with, from its opening to
// its closing brace, and rejects any key of it, or of its "overrides"
// object, that names no field. It is the strict half of a json.Decoder
// with unknown fields disallowed, without building one per Spec: bytes
// after the object are ignored, as one Decode ignores them, and anything
// but an object fails, as decoding it into a Spec would. The scan follows
// only strings and nesting; json.Unmarshal of the object checks its
// syntax.
func leadingObject(b []byte) ([]byte, error) {
	start := 0
	for start < len(b) && isSpace(b[start]) {
		start++
	}
	if start == len(b) || b[start] != '{' {
		return nil, errors.New("want a JSON object")
	}
	// atKey is set where the next string is a key to check: in the Spec
	// object, or in an object that is the value of its "overrides" key.
	depth, atKey, inOverrides, overridesObj := 0, false, false, false
	for i := start; i < len(b); i++ {
		switch b[i] {
		case '{', '[':
			depth++
			if depth == 2 {
				overridesObj = inOverrides && b[i] == '{'
			}
			atKey = depth == 1 || depth == 2 && overridesObj
		case '}', ']':
			if depth--; depth == 0 {
				return b[start : i+1], nil
			}
		case ',':
			atKey = depth == 1 || depth == 2 && overridesObj
		case '"':
			j := i + 1
			for ; j < len(b) && b[j] != '"'; j++ {
				if b[j] == '\\' {
					j++
				}
			}
			if j >= len(b) {
				return nil, io.ErrUnexpectedEOF
			}
			if atKey {
				fields := specFields
				if depth == 2 {
					fields = overrideFields
				}
				name, err := knownField(b[i:j+1], fields)
				if err != nil {
					return nil, err
				}
				if depth == 1 {
					inOverrides = name == "overrides"
				}
				atKey = false
			}
			i = j
		}
	}
	return nil, io.ErrUnexpectedEOF
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// knownField returns the field of fields one quoted object key decodes
// into, matched as encoding/json matches a key to a struct field: equal,
// or equal under its case folding.
func knownField(quoted []byte, fields []string) (string, error) {
	key := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(key, '\\') >= 0 {
		var unquoted string
		if err := json.Unmarshal(quoted, &unquoted); err != nil {
			return "", err
		}
		key = []byte(unquoted)
	}
	for _, name := range fields {
		if foldEqual(key, name) {
			return name, nil
		}
	}
	return "", fmt.Errorf("json: unknown field %q", key)
}

// foldEqual reports whether key equals the ASCII field name under
// encoding/json's folding: ASCII letters compare case-insensitively, and
// any other rune stands for the smallest rune of its Unicode simple-fold
// orbit, so the Kelvin sign matches k and the long s matches s.
func foldEqual(key []byte, name string) bool {
	for _, r := range string(key) {
		if name == "" || foldRune(r) != foldRune(rune(name[0])) {
			return false
		}
		name = name[1:]
	}
	return name == ""
}

func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
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
