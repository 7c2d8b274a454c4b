package runner

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestAxesCrossProduct pins the enumeration: benchmarks major, then
// systems, then knob axes in declared order, innermost fastest.
func TestAxesCrossProduct(t *testing.T) {
	a := Axes{
		Benchmarks: []string{"EP", "IS"},
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      workloads.Tiny,
		Base:       config.Overrides{Cores: 4},
		Knobs: []KnobAxis{
			{Name: "filter_entries", Values: []int{8, 16}},
			{Name: "l1d_size", Values: []int{16 << 10, 32 << 10}},
		},
	}
	specs, err := a.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*1*2*2 {
		t.Fatalf("cross product = %d specs, want 8", len(specs))
	}
	// First block: EP, filter 8, l1d sweeping fastest.
	if specs[0].Overrides.FilterEntries != 8 || specs[0].Overrides.L1DSize != 16<<10 {
		t.Fatalf("specs[0] = %+v", specs[0].Overrides)
	}
	if specs[1].Overrides.FilterEntries != 8 || specs[1].Overrides.L1DSize != 32<<10 {
		t.Fatalf("specs[1] = %+v", specs[1].Overrides)
	}
	if specs[2].Overrides.FilterEntries != 16 {
		t.Fatalf("specs[2] = %+v", specs[2].Overrides)
	}
	if specs[4].Benchmark != "IS" {
		t.Fatalf("specs[4].Benchmark = %s, want IS", specs[4].Benchmark)
	}
	// Every point is distinct and valid.
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Key()] {
			t.Fatalf("duplicate key %s", s.Key())
		}
		seen[s.Key()] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
	}
}

func TestAxesBaseOverridesApplyToEveryPoint(t *testing.T) {
	base := config.Overrides{Cores: 4}
	if err := base.Set("mem_latency", 200); err != nil {
		t.Fatal(err)
	}
	a := Axes{
		Benchmarks: []string{"EP"},
		Systems:    []config.MemorySystem{config.CacheBased},
		Scale:      workloads.Tiny,
		Base:       base,
		Knobs:      []KnobAxis{{Name: "l1d_size", Values: []int{16 << 10, 32 << 10}}},
	}
	specs, err := a.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Overrides.MemLatency != 200 {
			t.Fatalf("%s lost the base override: %+v", s.Key(), s.Overrides)
		}
	}
}

func TestAxesRejectsBadAxes(t *testing.T) {
	cases := []Axes{
		{Scale: workloads.Tiny, Knobs: []KnobAxis{{Name: "warp_drive", Values: []int{1}}}},
		{Scale: workloads.Tiny, Knobs: []KnobAxis{{Name: "l1d_size", Values: nil}}},
		{Scale: workloads.Tiny, Knobs: []KnobAxis{{Name: "l1d_size", Values: []int{0}}}},
		{Scale: workloads.Tiny, Knobs: []KnobAxis{
			{Name: "l1d_size", Values: []int{1 << 10}},
			{Name: "l1d_size", Values: []int{2 << 10}},
		}},
	}
	for i, a := range cases {
		if _, err := a.Specs(); err == nil {
			t.Errorf("case %d: Specs accepted a bad axis", i)
		}
	}
}

// TestMatrixIsAxesWithoutKnobs: the legacy Matrix must keep its exact
// enumeration (order included) now that it delegates to Axes.
func TestMatrixIsAxesWithoutKnobs(t *testing.T) {
	got := Matrix([]string{"EP", "IS"}, AllSystems, workloads.Tiny, 4)
	var want []system.Spec
	for _, b := range []string{"EP", "IS"} {
		for _, sys := range AllSystems {
			want = append(want, system.Spec{System: sys, Benchmark: b, Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Matrix enumeration changed:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseKnobAxis(t *testing.T) {
	ax, err := ParseKnobAxis("filter_entries=16,32, 48")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "filter_entries" || !reflect.DeepEqual(ax.Values, []int{16, 32, 48}) {
		t.Fatalf("parsed %+v", ax)
	}
	for _, bad := range []string{"filter_entries", "=1,2", "filter_entries=", "filter_entries=1,x"} {
		if _, err := ParseKnobAxis(bad); err == nil {
			t.Errorf("ParseKnobAxis accepted %q", bad)
		}
	}
	if _, err := ParseKnobAxes([]string{"l1d_size=16384", "bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("ParseKnobAxes = %v, want error naming the bad flag", err)
	}
}

// TestAxesCoresAxisOverwritesBase: drivers fold their -cores flag into
// Base, so a "cores" sweep axis must overwrite that value point by point.
func TestAxesCoresAxisOverwritesBase(t *testing.T) {
	specs, err := Axes{
		Benchmarks: []string{"EP"},
		Systems:    []config.MemorySystem{config.CacheBased},
		Scale:      workloads.Tiny,
		Base:       config.Overrides{Cores: 4}, // the flag default the axis must override
		Knobs:      []KnobAxis{{Name: "cores", Values: []int{2, 8}}},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Config().Cores != 2 || specs[1].Config().Cores != 8 {
		t.Fatalf("cores axis lost: %+v", specs)
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
	}
}

// TestAxesWorkloadParamAxes pins the workload dimension of the cross
// product: parameterized spellings fix params on every point, -wsweep axes
// nest innermost, and axis values override the spelling's fixed params.
func TestAxesWorkloadParamAxes(t *testing.T) {
	a := Axes{
		Benchmarks: []string{"stream:streams=4"},
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      workloads.Tiny,
		Base:       config.Overrides{Cores: 4},
		Knobs:      []KnobAxis{{Name: "l1d_size", Values: []int{16 << 10, 32 << 10}}},
		WParams:    []ParamAxis{{Name: "stride", Values: []int{8, 128}}},
	}
	specs, err := a.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("cross product = %d specs, want 4", len(specs))
	}
	// Param axis is innermost: stride varies fastest.
	if specs[0].Params != "stride=8,streams=4" || specs[1].Params != "stride=128,streams=4" {
		t.Fatalf("param expansion wrong: %q then %q", specs[0].Params, specs[1].Params)
	}
	if specs[1].Overrides.L1DSize != 16<<10 || specs[2].Overrides.L1DSize != 32<<10 {
		t.Fatalf("knob axis no longer outer: %+v", specs)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Benchmark != "stream" {
			t.Fatalf("spec benchmark = %q", s.Benchmark)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if seen[s.Hash()] {
			t.Fatalf("duplicate hash for %s", s.Key())
		}
		seen[s.Hash()] = true
	}
}

// TestAxesRejectsBadWorkloadAxes: every invalid spelling or axis fails the
// enumeration before anything is queued.
func TestAxesRejectsBadWorkloadAxes(t *testing.T) {
	cases := []Axes{
		{Scale: workloads.Tiny, Benchmarks: []string{"warp"}},
		{Scale: workloads.Tiny, Benchmarks: []string{"stream:warp=1"}},
		{Scale: workloads.Tiny, Benchmarks: []string{"stream"}, WParams: []ParamAxis{{Name: "warp", Values: []int{1}}}},
		{Scale: workloads.Tiny, Benchmarks: []string{"stream"}, WParams: []ParamAxis{{Name: "stride", Values: nil}}},
		{Scale: workloads.Tiny, Benchmarks: []string{"stream"}, WParams: []ParamAxis{{Name: "stride", Values: []int{4}}}},
		{Scale: workloads.Tiny, Benchmarks: []string{"stream"}, WParams: []ParamAxis{
			{Name: "stride", Values: []int{8}}, {Name: "stride", Values: []int{16}}}},
		// In range per-value but violating the entry's cross-parameter
		// Check (stride must be 8-aligned): must fail up front, not after
		// every valid point of the sweep was simulated.
		{Scale: workloads.Tiny, Benchmarks: []string{"stream"}, WParams: []ParamAxis{{Name: "stride", Values: []int{8, 12}}}},
		// A param axis must be declared by EVERY swept workload.
		{Scale: workloads.Tiny, Benchmarks: []string{"stream", "gups"}, WParams: []ParamAxis{{Name: "stride", Values: []int{8}}}},
	}
	for i, a := range cases {
		if _, err := a.Specs(); err == nil {
			t.Errorf("case %d: Specs accepted a bad workload axis", i)
		}
	}
}

func TestParseParamAxis(t *testing.T) {
	ax, err := ParseParamAxis("stride=8,64k, 128")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "stride" || !reflect.DeepEqual(ax.Values, []int{8, 64 << 10, 128}) {
		t.Fatalf("parsed %+v", ax)
	}
	for _, bad := range []string{"stride", "=1,2", "stride=", "stride=1,x"} {
		if _, err := ParseParamAxis(bad); err == nil {
			t.Errorf("ParseParamAxis accepted %q", bad)
		}
	}
}

// FuzzParseAxis: an accepted -sweep or -wsweep payload re-renders with its
// values in decimal and re-parses to the same axis, by both parsers.
func FuzzParseAxis(f *testing.F) {
	for _, s := range []string{"filter_entries=16,32, 48", "stride=8,64k, 128", "cores=", "=1,2", " =1", "x=1,,2", "x=1e3,-4", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kax, kerr := ParseKnobAxis(s)
		pax, perr := ParseParamAxis(s)
		if (kerr == nil) != (perr == nil) {
			t.Fatalf("%q: knob axis error %v, param axis error %v", s, kerr, perr)
		}
		if kerr != nil {
			return
		}
		if kax.Name != pax.Name || !reflect.DeepEqual(kax.Values, pax.Values) {
			t.Fatalf("%q: knob axis %+v, param axis %+v", s, kax, pax)
		}
		vals := make([]string, len(kax.Values))
		for i, v := range kax.Values {
			vals[i] = strconv.Itoa(v)
		}
		r := kax.Name + "=" + strings.Join(vals, ",")
		if back, err := ParseKnobAxis(r); err != nil || !reflect.DeepEqual(back, kax) {
			t.Fatalf("%q parses to %+v, whose rendering %q re-parses to %+v, %v", s, kax, r, back, err)
		}
	})
}
