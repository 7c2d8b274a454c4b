package system

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestV2EntriesMissUnderV3 pins the v2 → v3 migration contract: the golden
// digests of the retired hybridsim-spec-v2 encoding (pinned here before the
// workload-parameter lines were added) must NOT be reproduced by the v3
// encoding, so every v2 cache entry misses by design instead of aliasing a
// v3 run. The Key layout for knob-bearing Specs is unchanged.
func TestV2EntriesMissUnderV3(t *testing.T) {
	plain := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Small}
	if got, v2 := plain.Hash(), "83608ff9e2718031d950239ec6da3e6fe19e235bafe3a282468e130c8ddd65e9"; got == v2 {
		t.Errorf("plain spec still hashes to its v2 digest %s", v2)
	}
	withKnobs := plain
	withKnobs.Overrides.L1DSize = 65536
	withKnobs.Overrides.FilterEntries = 16
	withKnobs.Seed = 7
	withKnobs.MaxEvents = 1 << 20
	if got, v2 := withKnobs.Hash(), "5e4626647642d563953cb5dc36105e1ce77c060997dce84d2412f795f6263945"; got == v2 {
		t.Errorf("overridden spec still hashes to its v2 digest %s", v2)
	}
	if got, want := withKnobs.Key(), "IS/hybrid/small/l1d_size=65536/filter_entries=16/s7/e1048576"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

// TestSpecLegacyOverridesEquivalence is the cache-compat regression guard:
// a Spec using the legacy Cores/FilterEntries fields and the same run
// spelled through Overrides must share one Hash, one Key and one Config —
// otherwise upgrading a client would split the daemon's cache in two.
func TestSpecLegacyOverridesEquivalence(t *testing.T) {
	legacy := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny,
		Cores: 8, FilterEntries: 16}
	modern := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	modern.Overrides.Cores = 8
	modern.Overrides.FilterEntries = 16

	if legacy.Hash() != modern.Hash() {
		t.Fatalf("legacy and Overrides spellings hash apart:\n%s\n%s", legacy.Hash(), modern.Hash())
	}
	if legacy.Key() != modern.Key() {
		t.Fatalf("legacy and Overrides spellings key apart: %q vs %q", legacy.Key(), modern.Key())
	}
	if legacy.Config() != modern.Config() {
		t.Fatalf("legacy and Overrides spellings build different machines:\n%+v\n%+v",
			legacy.Config(), modern.Config())
	}
	// Both set, agreeing: fine. Both set, disagreeing: a contradiction.
	both := legacy
	both.Overrides.Cores = 8
	if err := both.Validate(); err != nil {
		t.Fatalf("agreeing legacy+override rejected: %v", err)
	}
	if both.Hash() != legacy.Hash() {
		t.Fatal("agreeing legacy+override changed the hash")
	}
	both.Overrides.Cores = 16
	if err := both.Validate(); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting legacy+override accepted: %v", err)
	}
}

// TestSpecJSONRoundTripArbitraryOverrides is the property test for the wire
// contract: for seeded-random subsets of the knob registry with random
// values, marshal → unmarshal must reproduce the Spec exactly, with Key and
// Hash intact. Values are drawn from each knob's current default (always
// valid) so decode-time validation never trips on structural constraints.
func TestSpecJSONRoundTripArbitraryOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	def := config.ForSystem(config.HybridReal)
	knobs := config.Knobs()
	for trial := 0; trial < 200; trial++ {
		s := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
		for _, k := range knobs {
			switch rng.Intn(3) {
			case 0: // leave unset
			case 1: // explicit default — must normalize away in Key/Hash
				*k.Over(&s.Overrides) = *k.Field(&def)
			case 2: // perturbed but structurally safe: defaults doubled
				*k.Over(&s.Overrides) = *k.Field(&def) * 2
			}
		}
		// Structural coupling (mesh must cover cores, power-of-two sets)
		// makes some random machines unbuildable; those are Validate's
		// problem, not the wire's. Only buildable Specs must round-trip.
		if s.Validate() != nil {
			continue
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var got Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("trial %d: unmarshal %s: %v", trial, b, err)
		}
		if got != s {
			t.Fatalf("trial %d: round trip changed the Spec:\n got %+v\nwant %+v\nwire %s", trial, got, s, b)
		}
		if got.Key() != s.Key() || got.Hash() != s.Hash() {
			t.Fatalf("trial %d: round trip changed identity", trial)
		}
	}
}

// TestSpecOverridesDefaultNormalization: knobs spelled at their Table 1
// value are the same run as unset knobs — one Key, one Hash, no knob
// segments in the Key.
func TestSpecOverridesDefaultNormalization(t *testing.T) {
	base := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	def := config.ForSystem(config.HybridReal)
	explicit := base
	explicit.Overrides.L1DSize = def.L1DSize
	explicit.Overrides.MemLatency = def.MemLatency
	if base.Hash() != explicit.Hash() || base.Key() != explicit.Key() {
		t.Fatalf("explicit defaults changed identity: %q vs %q", explicit.Key(), base.Key())
	}
	changed := base
	changed.Overrides.MemLatency = def.MemLatency * 2
	if changed.Hash() == base.Hash() {
		t.Fatal("a real mem_latency override did not change the Hash")
	}
	if !strings.Contains(changed.Key(), "mem_latency=200") {
		t.Fatalf("Key %q does not name the overridden knob", changed.Key())
	}
}

// TestSpecOverridesAffectResults: an L1D size override must actually reach
// the machine and perturb the measurements — the end-to-end guarantee the
// whole redesign exists for.
func TestSpecOverridesAffectResults(t *testing.T) {
	base := Spec{System: config.CacheBased, Benchmark: "IS", Scale: workloads.Tiny, Cores: 4}
	shrunkL1 := base
	shrunkL1.Overrides.L1DSize = 1 << 10
	rBase, err := base.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := shrunkL1.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rSmall.L1DMisses <= rBase.L1DMisses {
		t.Fatalf("a 1KB L1D did not increase misses: %d vs %d", rSmall.L1DMisses, rBase.L1DMisses)
	}
}

// TestSpecRejectsNegativeOverrideKnob: the open parameter space keeps the
// old rule — negative values cannot mint cache identities.
func TestSpecRejectsNegativeOverrideKnob(t *testing.T) {
	s := Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny}
	s.Overrides.MemLatency = -5
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "mem_latency") {
		t.Fatalf("err = %v, want negative mem_latency rejection", err)
	}
	var decoded Spec
	err := json.Unmarshal([]byte(`{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"mem_latency":-5}}`), &decoded)
	if err == nil {
		t.Fatal("decode accepted a negative knob")
	}
}

// TestSpecMeshOverrideWinsOverShrink: an explicit mesh override suppresses
// the automatic re-dimensioning that a core-count change triggers.
func TestSpecMeshOverrideWinsOverShrink(t *testing.T) {
	s := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	s.Overrides.Cores = 8
	s.Overrides.MeshWidth = 1
	s.Overrides.MeshHeight = 8
	cfg := s.Config()
	if cfg.MeshWidth != 1 || cfg.MeshHeight != 8 {
		t.Fatalf("mesh %dx%d, want the explicit 1x8", cfg.MeshWidth, cfg.MeshHeight)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMeshForNonRectangularCores documents the §2 decision: a prime core
// count yields the degenerate 1 x N chain rather than silently simulating a
// different core count.
func TestMeshForNonRectangularCores(t *testing.T) {
	cases := []struct{ cores, w, h int }{
		{4, 2, 2}, {8, 2, 4}, {12, 3, 4}, {7, 1, 7}, {13, 1, 13}, {1, 1, 1},
	}
	for _, c := range cases {
		w, h := meshFor(c.cores)
		if w != c.w || h != c.h {
			t.Errorf("meshFor(%d) = %dx%d, want %dx%d", c.cores, w, h, c.w, c.h)
		}
	}
	s := Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, Cores: 7}
	if err := s.Validate(); err != nil {
		t.Fatalf("a prime core count must still be buildable (1x7 chain): %v", err)
	}
	cfg := s.Config()
	if cfg.MeshWidth*cfg.MeshHeight != 7 {
		t.Fatalf("mesh %dx%d does not cover 7 cores", cfg.MeshWidth, cfg.MeshHeight)
	}
}

// TestSpecHashSeesDerivedAdjustments is the regression guard for the
// review finding: an override spelled at a Table 1 default value can
// suppress a shrink-time adjustment (here the memory-controller cap), so
// it names a DIFFERENT machine than the unset spelling and must hash
// apart — the content cache must never serve one's Results for the other.
// Conversely, writing the derived adjustments out by hand names the SAME
// machine as letting shrink compute them, and must share one address.
func TestSpecHashSeesDerivedAdjustments(t *testing.T) {
	capped := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Cores: 4}
	uncapped := capped
	uncapped.Overrides.MemControllers = config.ForSystem(config.HybridReal).MemControllers // 16, the default
	if capped.Config().MemControllers == uncapped.Config().MemControllers {
		t.Fatal("fixture broken: the explicit default no longer suppresses the cap")
	}
	if capped.Hash() == uncapped.Hash() {
		t.Fatalf("different machines share a hash:\n capped   %+v\n uncapped %+v", capped.Config(), uncapped.Config())
	}
	if capped.Key() == uncapped.Key() {
		t.Fatal("different machines share a Key")
	}

	spelledOut := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	spelledOut.Overrides.Cores = 4
	cfg := capped.Config()
	spelledOut.Overrides.MeshWidth = cfg.MeshWidth
	spelledOut.Overrides.MeshHeight = cfg.MeshHeight
	spelledOut.Overrides.MemControllers = cfg.MemControllers
	if spelledOut.Config() != capped.Config() {
		t.Fatalf("hand-spelled adjustments build a different machine:\n%+v\n%+v", spelledOut.Config(), capped.Config())
	}
	if spelledOut.Hash() != capped.Hash() || spelledOut.Key() != capped.Key() {
		t.Fatal("equal machines hash or key apart")
	}
}
