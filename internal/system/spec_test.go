package system

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

func TestSpecConfigDefaults(t *testing.T) {
	s := Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Tiny}
	cfg := s.Config()
	if cfg.Cores != config.Default().Cores {
		t.Fatalf("Cores = %d, want Table 1 default %d", cfg.Cores, config.Default().Cores)
	}
	if cfg.FilterEntries != config.Default().FilterEntries {
		t.Fatalf("FilterEntries = %d, want default %d", cfg.FilterEntries, config.Default().FilterEntries)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecConfigOverrides(t *testing.T) {
	s := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8, FilterEntries: 16}}
	cfg := s.Config()
	if cfg.Cores != 8 {
		t.Fatalf("Cores = %d, want 8", cfg.Cores)
	}
	if cfg.MeshWidth*cfg.MeshHeight != 8 {
		t.Fatalf("mesh %dx%d does not cover 8 cores", cfg.MeshWidth, cfg.MeshHeight)
	}
	if cfg.FilterEntries != 16 {
		t.Fatalf("FilterEntries = %d, want 16", cfg.FilterEntries)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecKeyDistinguishesRuns(t *testing.T) {
	base := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny}
	variants := []Spec{
		base,
		{System: config.CacheBased, Benchmark: "IS", Scale: workloads.Tiny},
		{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Tiny},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Small},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{FilterEntries: 8}},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Seed: 7},
	}
	seen := map[string]Spec{}
	for _, s := range variants {
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %+v and %+v share key %q", prev, s, k)
		}
		seen[k] = s
	}
	if k := base.Key(); k != base.Key() {
		t.Fatalf("Key not stable: %q vs %q", k, base.Key())
	}
}

func TestSpecValidateRejectsUnknownBenchmark(t *testing.T) {
	s := Spec{System: config.HybridReal, Benchmark: "LU", Scale: workloads.Tiny}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "LU") {
		t.Fatalf("Validate = %v, want unknown-benchmark error", err)
	}
	if _, err := s.ExecuteContext(context.Background()); err == nil {
		t.Fatal("Execute accepted an unknown benchmark")
	}
}

func TestSpecMaxEventsBudget(t *testing.T) {
	s := Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, MaxEvents: 100, Overrides: config.Overrides{Cores: 4}}
	if _, err := s.ExecuteContext(context.Background()); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want event-budget error", err)
	}
}
