package system

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// specVariants enumerates every combination of the optional Spec fields
// (the cores and filter_entries overrides, Seed, MaxEvents set or zero) over
// a couple of base (system, benchmark, scale) triples — 2 x 16 Specs.
func specVariants() []Spec {
	bases := []Spec{
		{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Small},
	}
	var out []Spec
	for _, base := range bases {
		for mask := 0; mask < 16; mask++ {
			s := base
			if mask&1 != 0 {
				s.Overrides.Cores = 8
			}
			if mask&2 != 0 {
				s.Seed = 12345
			}
			if mask&4 != 0 {
				s.Overrides.FilterEntries = 16
			}
			if mask&8 != 0 {
				s.MaxEvents = 1 << 20
			}
			out = append(out, s)
		}
	}
	return out
}

// TestSpecJSONRoundTrip pins the service wire contract: marshal →
// unmarshal must reproduce the Spec exactly — same struct, same Key, same
// canonical Hash — for every optional-field combination.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range specVariants() {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Key(), err)
		}
		var got Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", s.Key(), b, err)
		}
		if got != s {
			t.Fatalf("round trip changed the Spec:\n got %+v\nwant %+v\nwire %s", got, s, b)
		}
		if got.Key() != s.Key() {
			t.Fatalf("round trip changed Key: %q vs %q", got.Key(), s.Key())
		}
		if got.Hash() != s.Hash() {
			t.Fatalf("round trip changed Hash: %q vs %q", got.Hash(), s.Hash())
		}
	}
}

// TestSpecJSONNamesNotEnums pins the wire encoding to stable names, so a
// reordered enum can never silently remap cached or in-flight runs.
func TestSpecJSONNamesNotEnums(t *testing.T) {
	s := Spec{System: config.HybridIdeal, Benchmark: "CG", Scale: workloads.Small}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"system":"hybrid-ideal"`, `"scale":"small"`, `"benchmark":"CG"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("wire form %s missing %s", b, want)
		}
	}
}

func TestSpecJSONRejectsUnknownBenchmark(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"system":"cache","benchmark":"LU","scale":"tiny"}`), &s)
	if err == nil || !strings.Contains(err.Error(), "LU") {
		t.Fatalf("err = %v, want unknown-benchmark rejection at decode time", err)
	}
}

func TestSpecJSONRejectsUnknownFields(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"system":"cache","benchmark":"EP","scale":"tiny","turbo":true}`), &s)
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("err = %v, want unknown-field rejection", err)
	}
}

func TestSpecJSONRejectsBadNames(t *testing.T) {
	cases := []string{
		`{"system":"quantum","benchmark":"EP","scale":"tiny"}`,
		`{"system":"cache","benchmark":"EP","scale":"huge"}`,
	}
	for _, body := range cases {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err == nil {
			t.Fatalf("decoded %s without error", body)
		}
	}
}

// TestSpecSeedNormalization pins the satellite fix: an explicit
// Seed == DefaultSeed is the same run as the zero value and must share one
// cache identity, while a genuinely different seed must not.
func TestSpecSeedNormalization(t *testing.T) {
	implicit := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	explicit := implicit
	explicit.Seed = DefaultSeed
	if implicit.Key() != explicit.Key() {
		t.Fatalf("equivalent Specs diverge: %q vs %q", implicit.Key(), explicit.Key())
	}
	if strings.Contains(explicit.Key(), "/s") {
		t.Fatalf("default seed leaked into Key %q", explicit.Key())
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatalf("equivalent Specs hash apart: %q vs %q", implicit.Hash(), explicit.Hash())
	}
	other := implicit
	other.Seed = 7
	if other.Key() == implicit.Key() || other.Hash() == implicit.Hash() {
		t.Fatal("a non-default seed did not change the cache identity")
	}
}

// TestSpecHashDistinguishesEveryField guards the canonical encoding: each
// result-affecting field must perturb the digest.
func TestSpecHashDistinguishesEveryField(t *testing.T) {
	base := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	seen := map[string]string{base.Hash(): "base"}
	mutations := map[string]Spec{
		"system":    {System: config.CacheBased, Benchmark: "IS", Scale: workloads.Tiny},
		"benchmark": {System: config.HybridReal, Benchmark: "CG", Scale: workloads.Tiny},
		"scale":     {System: config.HybridReal, Benchmark: "IS", Scale: workloads.Small},
		"cores":     {System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		"seed":      {System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Seed: 9},
		"filter":    {System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{FilterEntries: 8}},
		"maxevents": {System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, MaxEvents: 10},
	}
	for field, s := range mutations {
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("mutating %s collides with %s (hash %s)", field, prev, h)
		}
		seen[h] = field
	}
}

// TestExecuteContextCancellation pins cooperative cancellation at the
// machine level: a dead context stops the run mid-simulation.
func TestExecuteContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}}
	_, err := s.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSpecDefaultNormalization: spelling out a Table 1 default (cores,
// filter size) names the same run as leaving the field zero, so both must
// share one Key and one canonical Hash — same rule as the seed.
func TestSpecDefaultNormalization(t *testing.T) {
	base := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	def := config.ForSystem(config.HybridReal)
	explicit := base
	explicit.Overrides.Cores = def.Cores
	explicit.Overrides.FilterEntries = def.FilterEntries
	if base.Key() != explicit.Key() {
		t.Fatalf("explicit defaults change Key: %q vs %q", explicit.Key(), base.Key())
	}
	if base.Hash() != explicit.Hash() {
		t.Fatalf("explicit defaults change Hash: %q vs %q", explicit.Hash(), base.Hash())
	}
	shrunk := base
	shrunk.Overrides.Cores = 8
	if shrunk.Hash() == base.Hash() {
		t.Fatal("a real core-count override did not change the Hash")
	}
}

// TestSpecValidateRejectsNegativeOverrides: negative values would be
// ignored by Config yet perturb nothing but the wire form — reject them.
func TestSpecValidateRejectsNegativeOverrides(t *testing.T) {
	bad := []Spec{
		{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: -4}},
		{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, Overrides: config.Overrides{FilterEntries: -1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", s)
		}
	}
	var s Spec
	if err := json.Unmarshal([]byte(`{"system":"cache","benchmark":"EP","scale":"tiny","cores":-4}`), &s); err == nil {
		t.Fatal("decode accepted a negative core count")
	}
}
