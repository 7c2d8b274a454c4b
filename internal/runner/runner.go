// Package runner fans a list of declarative run Specs out across a pool of
// worker goroutines and collects their Results in input order.
//
// Each worker executes one Spec at a time on its own freshly built machine;
// the simulation engine inside a run stays single-threaded, so parallelism
// across runs cannot perturb any run's outcome. Output is therefore
// byte-identical for any worker count — determinism by construction, which
// TestWorkerCountInvariance pins.
//
//	specs := runner.Matrix(workloads.Names(), runner.AllSystems, scale, cores)
//	results := runner.Run(specs, runner.Options{Workers: 8, Progress: os.Stderr})
//	rows, err := runner.Collect(results)
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// Result pairs a Spec with what executing it produced.
type Result struct {
	Spec system.Spec
	Res  system.Results
	Err  error
	Wall time.Duration // host wall-clock spent on this run
}

// RunOne executes a single Spec under ctx and times it — the unit of work
// shared by the sweep workers below and by the service's job queue.
func RunOne(ctx context.Context, spec system.Spec) Result {
	t0 := time.Now()
	res, err := spec.ExecuteContext(ctx)
	return Result{Spec: spec, Res: res, Err: err, Wall: time.Since(t0)}
}

// Options configures a sweep.
type Options struct {
	// Workers is the worker-pool size; values < 1 mean one worker per
	// host CPU. Each in-flight run costs one wired machine of memory.
	Workers int

	// Progress, when non-nil, receives one line per completed run
	// (completion order, not input order — it is a live stream).
	Progress io.Writer
}

// Run executes every Spec and returns the Results indexed exactly like the
// input, regardless of worker count or completion order. Individual run
// failures are reported per Result, not by aborting the sweep.
func Run(specs []system.Spec, opt Options) []Result {
	return RunContext(context.Background(), specs, opt)
}

// RunContext is Run with cancellation: once ctx is done, no new Spec is
// dispatched and in-flight runs are stopped cooperatively (see
// system.Machine.RunContext). Specs the cancellation prevented from running
// carry ctx's error in their Result, so Collect still fails loudly.
func RunContext(ctx context.Context, specs []system.Spec, opt Options) []Result {
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]Result, len(specs))
	if len(specs) == 0 {
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes progress lines and the done counter
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A cancellation may race with a pending dispatch; drop the
				// Spec here rather than burn a full run on a dead sweep.
				if err := ctx.Err(); err != nil {
					results[i] = Result{Spec: specs[i], Err: err}
					continue
				}
				results[i] = RunOne(ctx, specs[i])
				if opt.Progress != nil {
					r := results[i]
					mu.Lock()
					done++
					if r.Err != nil {
						fmt.Fprintf(opt.Progress, "[%d/%d] %s FAILED after %.1fs: %v\n",
							done, len(specs), specs[i].Key(), r.Wall.Seconds(), r.Err)
					} else {
						fmt.Fprintf(opt.Progress, "[%d/%d] %s in %.1fs (%d cycles)\n",
							done, len(specs), specs[i].Key(), r.Wall.Seconds(), r.Res.Cycles)
					}
					mu.Unlock()
				}
			}
		}()
	}
	canceled := false
	for i := range specs {
		if !canceled {
			select {
			case idx <- i:
				continue
			case <-ctx.Done():
				canceled = true
			}
		}
		results[i] = Result{Spec: specs[i], Err: ctx.Err()}
	}
	close(idx)
	wg.Wait()
	return results
}

// Collect strips the Results out of a fully successful sweep, preserving
// input order; it fails with the error of the earliest failed run.
func Collect(results []Result) ([]system.Results, error) {
	out := make([]system.Results, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Spec.Key(), r.Err)
		}
		out[i] = r.Res
	}
	return out, nil
}

// AllSystems lists the three machines of the evaluation in the paper's
// presentation order.
var AllSystems = []config.MemorySystem{config.CacheBased, config.HybridReal, config.HybridIdeal}

// Matrix enumerates the full benchmark x memory-system sweep — the shape of
// every figure in the paper — as Specs, benchmark-major like the original
// serial loop. It is the no-knob-axes special case of Axes; cores == 0
// keeps the Table 1 core count.
func Matrix(benchmarks []string, systems []config.MemorySystem, scale workloads.Scale, cores int) []system.Spec {
	specs, err := Axes{Benchmarks: benchmarks, Systems: systems, Scale: scale,
		Base: config.Overrides{Cores: cores}}.Specs()
	if err != nil {
		// Axes only fails on bad knob axes, and Matrix declares none.
		panic(err)
	}
	return specs
}
