package runner

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// tinySpecs is a small but representative sweep: two benchmarks on all
// three memory systems at the test scale.
func tinySpecs() []system.Spec {
	return Matrix([]string{"EP", "IS"}, AllSystems, workloads.Tiny, 4)
}

func TestResultsArriveInInputOrder(t *testing.T) {
	specs := tinySpecs()
	results := Run(specs, Options{Workers: len(specs)})
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("spec %s failed: %v", specs[i].Key(), r.Err)
		}
		if r.Spec != specs[i] {
			t.Errorf("results[%d].Spec = %v, want %v", i, r.Spec, specs[i])
		}
		if r.Res.Benchmark != specs[i].Benchmark || r.Res.System != specs[i].System {
			t.Errorf("results[%d] is %s/%v, want %s/%v",
				i, r.Res.Benchmark, r.Res.System, specs[i].Benchmark, specs[i].System)
		}
		if r.Wall <= 0 {
			t.Errorf("results[%d].Wall = %v, want > 0", i, r.Wall)
		}
	}
}

func TestProgressStreamsOneLinePerRun(t *testing.T) {
	specs := tinySpecs()
	var progress bytes.Buffer
	if err := FirstError(Run(specs, Options{Workers: 2, Progress: &progress})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), len(specs), progress.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "cycles") {
			t.Errorf("progress line %q missing cycle count", l)
		}
	}
}

func TestFailedRunIsReportedNotFatal(t *testing.T) {
	specs := []system.Spec{
		{System: config.HybridReal, Benchmark: "EP", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}},
		{System: config.HybridReal, Benchmark: "NOPE", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}},
	}
	results := Run(specs, Options{Workers: 2})
	if results[0].Err != nil {
		t.Fatalf("good spec failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unknown benchmark did not fail")
	}
	if err := FirstError(results); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("FirstError = %v, want mention of NOPE", err)
	}
	if _, err := Collect(results); err == nil {
		t.Fatal("Collect accepted a failed sweep")
	}
}

func TestEmptySweep(t *testing.T) {
	if got := Run(nil, Options{Workers: 4}); len(got) != 0 {
		t.Fatalf("Run(nil) = %v, want empty", got)
	}
}

func TestMatrixShape(t *testing.T) {
	// The default matrix covers the whole registry — the count derives
	// from it, so adding a workload can never silently drift this test.
	specs := Matrix(workloads.Names(), AllSystems, workloads.Small, 0)
	if want := len(workloads.Names()) * len(AllSystems); len(specs) != want {
		t.Fatalf("full matrix = %d specs, want %d", len(specs), want)
	}
	if nas := Matrix(workloads.NAS(), AllSystems, workloads.Small, 0); len(nas) != 18 {
		t.Fatalf("paper matrix = %d specs, want 18", len(nas))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Key()] {
			t.Fatalf("duplicate spec key %s", s.Key())
		}
		seen[s.Key()] = true
	}
}

// cancelOnFirstWrite cancels a context the first time the progress stream
// receives a line — i.e. right after the first run completes.
type cancelOnFirstWrite struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return len(p), nil
}

// TestRunContextCancellationStopsDispatch pins the service contract: once
// the context dies (client disconnect, deadline), no further Spec is
// executed; the un-run Specs carry the context error so Collect fails
// loudly instead of returning a silently truncated sweep.
func TestRunContextCancellationStopsDispatch(t *testing.T) {
	specs := Matrix(workloads.Names(), AllSystems, workloads.Tiny, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := RunContext(ctx, specs, Options{
		Workers:  1,
		Progress: &cancelOnFirstWrite{cancel: cancel},
	})

	if results[0].Err != nil {
		t.Fatalf("first run failed: %v", results[0].Err)
	}
	if results[0].Res.Cycles == 0 {
		t.Fatal("first run produced no cycles")
	}
	// The single worker cancels the context while finishing run 0, so every
	// later Spec must have been dropped, not executed.
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("results[%d].Err = %v, want context.Canceled", i, results[i].Err)
		}
		if results[i].Res.Cycles != 0 {
			t.Fatalf("results[%d] executed after cancellation", i)
		}
	}
	if _, err := Collect(results); !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect = %v, want the cancellation surfaced", err)
	}
}

// TestRunContextPreCanceled: a dead context runs nothing at all.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunContext(ctx, tinySpecs(), Options{Workers: 2})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("results[%d].Err = %v, want context.Canceled", i, r.Err)
		}
	}
}
