package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// referenceHash is the straightforward rendering of the v3 encoding DESIGN.md
// §8 specifies, built from the public ParamDiff and KnobDiff. Hash must
// produce the same digest by a cheaper route.
func referenceHash(s Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hybridsim-spec-v3\nsystem=%s\nbenchmark=%s\nscale=%s\nseed=%x\nmaxevents=%d\n",
		s.System, s.Benchmark, s.Scale, s.seed(), s.MaxEvents)
	if diff, ok := s.ParamDiff(); ok {
		for _, pv := range diff {
			fmt.Fprintf(&b, "wparam %s=%d\n", pv.Name, pv.Value)
		}
	} else {
		fmt.Fprintf(&b, "wparam!=%s\n", s.Params)
	}
	for _, kv := range s.KnobDiff() {
		fmt.Fprintf(&b, "knob %s=%d\n", kv.Name, kv.Value)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// randomSpec draws a Spec from a space that includes every system (and an
// unknown one), every workload (and an unknown one), valid, default-valued,
// undeclared and unparsable params, legacy shims, random knob overrides
// (sometimes at their default value), seeds and event bounds.
func randomSpec(rnd *rand.Rand) Spec {
	names := append(workloads.Names(), "nope")
	params := []string{"", " ", "stride=128", "stride=8", "hot_pct=50", "footprint=64k",
		"bogus=1", "stride=", "stride=8,hot_pct=10", "=3"}
	s := Spec{
		System:    config.MemorySystem(rnd.Intn(4)),
		Benchmark: names[rnd.Intn(len(names))],
		Scale:     workloads.Scale(rnd.Intn(2)),
		Params:    params[rnd.Intn(len(params))],
	}
	knobs := config.Knobs()
	def := config.ForSystem(s.System)
	for i := rnd.Intn(4); i > 0; i-- {
		k := knobs[rnd.Intn(len(knobs))]
		v := 1 << rnd.Intn(12)
		if rnd.Intn(3) == 0 {
			v = *k.Field(&def)
		}
		*k.Over(&s.Overrides) = v
	}
	if rnd.Intn(3) == 0 {
		s.Cores = []int{4, 8, 16, 64}[rnd.Intn(4)]
	}
	if rnd.Intn(4) == 0 {
		s.FilterEntries = 1 << rnd.Intn(7)
	}
	if rnd.Intn(2) == 0 {
		s.Seed = rnd.Uint64() >> rnd.Intn(64)
	}
	if rnd.Intn(3) == 0 {
		s.MaxEvents = rnd.Uint64() >> rnd.Intn(64)
	}
	return s
}

func TestSpecHashMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		s := randomSpec(rnd)
		if got, want := s.Hash(), referenceHash(s); got != want {
			t.Fatalf("spec %+v: Hash = %s, reference %s", s, got, want)
		}
	}
}

// hashBenchSpec is the shape the result cache hashes most: a NAS kernel on
// a resized machine with no workload parameters.
var hashBenchSpec = Spec{System: config.CacheBased, Benchmark: "MG", Scale: workloads.Small, Cores: 16}

// TestSpecHashAllocs pins the cost of the cached-answer path's identity:
// hashing a Spec allocates at most three times.
func TestSpecHashAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = hashBenchSpec.Hash() }); n > 3 {
		t.Fatalf("Spec.Hash allocates %.0f times, want <= 3", n)
	}
}

func BenchmarkSpecHash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = hashBenchSpec.Hash()
	}
}
