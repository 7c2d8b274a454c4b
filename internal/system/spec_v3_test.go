package system

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestSpecHashV3Golden pins the hybridsim-spec-v3 encoding to fixed
// digests, for NAS-default, knob-bearing and workload-param-bearing Specs.
// If this test fails, the canonical encoding changed: every cached result
// in every deployed rescache directory silently misses, so the change must
// be deliberate and must bump the version prefix (DESIGN.md §8).
func TestSpecHashV3Golden(t *testing.T) {
	plain := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Small}
	if got, want := plain.Hash(), "efa642c9b6ae65a93979d3266aea9ef200851f8d786d4318934c14355c5a7caf"; got != want {
		t.Errorf("plain spec hash = %s, want %s", got, want)
	}
	withKnobs := plain
	withKnobs.Overrides.L1DSize = 65536
	withKnobs.Overrides.FilterEntries = 16
	withKnobs.Seed = 7
	withKnobs.MaxEvents = 1 << 20
	if got, want := withKnobs.Hash(), "17fe4177ec40dc748c79d9ad634c7afda683188bcd4477254f79a57527effa51"; got != want {
		t.Errorf("knob-bearing spec hash = %s, want %s", got, want)
	}
	withParams := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Small,
		Params: "stride=128"}
	if got, want := withParams.Hash(), "e66dbd184f9be8ff609e102950d9ff5c300c759a11e7f20f586528b588394278"; got != want {
		t.Errorf("param-bearing spec hash = %s, want %s", got, want)
	}
	if got, want := withParams.Key(), "stream:stride=128/hybrid/small"; got != want {
		t.Errorf("param-bearing Key = %q, want %q", got, want)
	}
	both := withParams
	both.Overrides.Cores = 8
	if got, want := both.Hash(), "fc6e684e44eb1b920c7e694b80a6831601ddd248de02862ed1516e7f57b42d53"; got != want {
		t.Errorf("param+knob spec hash = %s, want %s", got, want)
	}
	if got, want := both.Key(), "stream:stride=128/hybrid/small/cores=8/mesh_width=2/mesh_height=4/mem_controllers=8"; got != want {
		t.Errorf("param+knob Key = %q, want %q", got, want)
	}
}

// TestSpecParamDefaultNormalization is the cache-address contract of the
// acceptance criteria: the default-param spelling and the explicit-default
// spelling of one run share one Key and one Hash, while two distinct
// parameter values never do.
func TestSpecParamDefaultNormalization(t *testing.T) {
	unset := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny}
	explicit := unset
	explicit.Params = "stride=8" // the registry default, spelled out
	if unset.Hash() != explicit.Hash() || unset.Key() != explicit.Key() {
		t.Fatalf("explicit-default params changed identity: %q vs %q", explicit.Key(), unset.Key())
	}
	s128 := unset
	s128.Params = "stride=128"
	s256 := unset
	s256.Params = "stride=256"
	if s128.Hash() == s256.Hash() || s128.Hash() == unset.Hash() {
		t.Fatal("distinct stride values share a content address")
	}
	if s128.Key() == s256.Key() {
		t.Fatal("distinct stride values share a Key")
	}
	// Spelling order does not matter: the diff renders in declaration
	// order either way.
	a := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny,
		Params: "streams=4,stride=128"}
	b := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny,
		Params: "stride=128,streams=4"}
	if a.Hash() != b.Hash() || a.Key() != b.Key() {
		t.Fatalf("param spelling order changed identity: %q vs %q", a.Key(), b.Key())
	}
}

// TestSpecValidateParamsFromRegistry: Spec validation derives from the
// workloads registry — undeclared parameters, out-of-range values and
// unparsable payloads are rejected before queueing, hashing or running.
func TestSpecValidateParamsFromRegistry(t *testing.T) {
	good := Spec{System: config.HybridReal, Benchmark: "ptrchase", Scale: workloads.Tiny,
		Params: "hot_pct=90,footprint=65536"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Spec{
		{System: config.HybridReal, Benchmark: "ptrchase", Scale: workloads.Tiny, Params: "warp=1"},
		{System: config.HybridReal, Benchmark: "ptrchase", Scale: workloads.Tiny, Params: "hot_pct=101"},
		{System: config.HybridReal, Benchmark: "ptrchase", Scale: workloads.Tiny, Params: "hot_pct"},
		{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Tiny, Params: "n=10"},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %q on %s", s.Params, s.Benchmark)
		}
		if _, err := s.ExecuteContext(context.Background()); err == nil {
			t.Errorf("Execute accepted %q on %s", s.Params, s.Benchmark)
		}
	}
}

// TestSpecParamsJSONRoundTrip: params travel the wire as a sparse JSON
// object and decode back to the canonical declaration-order string, with
// identity intact.
func TestSpecParamsJSONRoundTrip(t *testing.T) {
	s := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny,
		Params: "n=4096,stride=128", Cores: 4}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"params"`) || !strings.Contains(string(b), `"stride":128`) {
		t.Fatalf("wire form lacks the params object: %s", b)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed the Spec:\n got %+v\nwant %+v", got, s)
	}
	if got.Key() != s.Key() || got.Hash() != s.Hash() {
		t.Fatal("round trip changed identity")
	}
	// A wire object in any key order decodes to the same canonical Spec.
	var reordered Spec
	if err := json.Unmarshal([]byte(`{"system":"hybrid","benchmark":"stream","scale":"tiny","cores":4,"params":{"stride":128,"n":4096}}`), &reordered); err != nil {
		t.Fatal(err)
	}
	if reordered != s {
		t.Fatalf("reordered wire decoded to %+v, want %+v", reordered, s)
	}
	// Bad params die at decode time, like every other invalid Spec field.
	if err := json.Unmarshal([]byte(`{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"warp":1}}`), &got); err == nil {
		t.Fatal("decode accepted an undeclared workload parameter")
	}
}

// TestSpecParamsAffectResults: the end-to-end guarantee the redesign exists
// for — a workload parameter must reach the machine and perturb the
// measurements.
func TestSpecParamsAffectResults(t *testing.T) {
	base := Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Cores: 4}
	rBase, err := base.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Params = "stride=512"
	rWide, err := wide.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A 512-byte stride turns dense SPM streams into cache-hostile GM
	// streams: one touched element per line, no DMA staging.
	if rWide.Cycles <= rBase.Cycles {
		t.Fatalf("wide stride did not slow the run: %d vs %d cycles", rWide.Cycles, rBase.Cycles)
	}
	if rWide.DMALineTransfers >= rBase.DMALineTransfers {
		t.Fatalf("wide stride kept DMA busy: %d vs %d line transfers",
			rWide.DMALineTransfers, rBase.DMALineTransfers)
	}
}
