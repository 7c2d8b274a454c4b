package repro

import (
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestPaperClaims pins the paper's qualitative claims on the NAS six at a
// scale CI can afford (Tiny, 8 cores, all three machines): one row per
// claim, each a direction with a loose bound, so a model change that
// overturns a figure's conclusion fails here rather than only showing up in
// a printed exhibit.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 18-run Tiny NAS matrix")
	}
	names := workloads.NAS()
	specs := runner.Matrix(names, runner.AllSystems, benchScale, benchCores)
	all, err := runner.Collect(runner.Run(specs, runner.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	res := map[config.MemorySystem]map[string]system.Results{}
	for i, r := range all {
		sys := specs[i].System
		if res[sys] == nil {
			res[sys] = map[string]system.Results{}
		}
		res[sys][specs[i].Benchmark] = r
	}
	cache, hybrid, ideal := res[config.CacheBased], res[config.HybridReal], res[config.HybridIdeal]

	claims := []struct {
		fig, claim, want string
		each             bool // per benchmark; otherwise the average over the six
		value            func(n string) float64
		holds            func(v float64) bool
	}{
		{"Fig7", "time overhead real/ideal", "<= 1.02", true,
			func(n string) float64 { return float64(hybrid[n].Cycles) / float64(ideal[n].Cycles) },
			func(v float64) bool { return v <= 1.02 }},
		{"Fig8", "filter hit ratio", ">= 0.90", true,
			func(n string) float64 { return hybrid[n].FilterHitRatio },
			func(v float64) bool { return v >= 0.90 }},
		{"Fig9", "speedup cache/hybrid", ">= 1.2", false,
			func(n string) float64 { return float64(cache[n].Cycles) / float64(hybrid[n].Cycles) },
			func(v float64) bool { return v >= 1.2 }},
		{"Fig10", "traffic hybrid/cache", "< 1", false,
			func(n string) float64 { return float64(hybrid[n].TotalPkts) / float64(cache[n].TotalPkts) },
			func(v float64) bool { return v < 1 }},
		{"Fig11", "energy hybrid/cache", "< 1", false,
			func(n string) float64 { return hybrid[n].Energy.Total() / cache[n].Energy.Total() },
			func(v float64) bool { return v < 1 }},
	}
	for _, c := range claims {
		check := func(label string, v float64) {
			t.Logf("%s %s %s = %.3f", c.fig, c.claim, label, v)
			if !c.holds(v) {
				t.Errorf("%s: %s on %s = %.3f, want %s", c.fig, c.claim, label, v, c.want)
			}
		}
		if c.each {
			for _, n := range names {
				check(n, c.value(n))
			}
			continue
		}
		var sum float64
		for _, n := range names {
			sum += c.value(n)
		}
		check("average", sum/float64(len(names)))
	}
}
