// Sweep: axis-based design-space exploration over the machine parameter
// space. The default run is the filter-size ablation (DESIGN.md Ablation
// A): the per-core filter caches "not mapped to any SPM" verdicts, and IS —
// the benchmark with the weakest guarded locality — is the most sensitive
// to its size, exactly as the paper's Fig. 8 suggests.
//
// Any registry knob (config.Knobs) can be swept instead: repeatable -sweep
// flags build the cross product and the results print as a per-knob-column
// CSV (report.SweepCSV), one column per swept axis — self-describing
// tables, no opaque key strings. -set fixes additional knobs on every run.
// The workload axis is just as open: -workload picks any registry workload
// (with optional "name:param=value" parameters; -workloads lists the
// catalog) and repeatable -wsweep flags sweep its declared parameters.
//
// Each sweep point is one declarative system.Spec. By default the runner
// fans them out across local worker goroutines (output is byte-identical
// for any -workers N); with -daemon the same Specs are submitted to a
// running hybridsimd instead, so a repeated sweep is answered from the
// daemon's content-addressed result cache:
//
//	go run ./examples/sweep -workers 8
//	go run ./examples/sweep -sweep filter_entries=16,32,48,64
//	go run ./examples/sweep -sweep l1d_size=16384,32768 -sweep prefetch_degree=1,2,4
//	go run ./examples/sweep -workload stream -wsweep stride=8,64,512
//	go run ./examples/sweep -workload ptrchase:footprint=4194304 -wsweep hot_pct=0,50,100
//	go run ./cmd/hybridsimd &
//	go run ./examples/sweep -daemon http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workloads"
)

func main() {
	workers := flag.Int("workers", 0, "parallel simulations (0 = one per host CPU)")
	daemon := flag.String("daemon", "", "run the sweep through a hybridsimd at this base URL instead of locally")
	workloadFlag := flag.String("workload", "IS", "workload spelling name[:param=value,...] for axis sweeps (see -workloads)")
	listWorkloads := flag.Bool("workloads", false, "list the workload catalog and exit")
	var sets, sweeps, wsweeps runner.MultiFlag
	flag.Var(&sets, "set", "fix one machine knob on every run, name=value (repeatable)")
	flag.Var(&sweeps, "sweep", "sweep one machine knob, name=v1,v2,... (repeatable; prints a per-column CSV)")
	flag.Var(&wsweeps, "wsweep", "sweep one workload parameter, name=v1,v2,... (repeatable; prints a per-column CSV)")
	flag.Parse()

	if *listWorkloads {
		report.WorkloadCatalog(os.Stdout)
		return
	}

	const cores = 16
	if len(sweeps) > 0 || len(wsweeps) > 0 {
		runAxisSweep(*workers, *daemon, *workloadFlag, cores, sets, sweeps, wsweeps)
		return
	}

	sizes := []int{4, 8, 16, 32, 48, 96}
	specs := make([]system.Spec, len(sizes))
	for i, entries := range sizes {
		specs[i] = system.Spec{
			System:    config.HybridReal,
			Benchmark: "IS",
			Scale:     workloads.Small,
			Overrides: config.Overrides{Cores: cores, FilterEntries: entries},
		}
	}

	fmt.Println("filter size sweep: IS on the hybrid system (16 cores, small scale)")
	results, err := execute(*workers, *daemon, specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-12s %-10s %-14s %-12s\n",
		"entries", "hit-ratio", "cycles", "CohProt pkts", "broadcasts")
	for i, r := range results {
		fmt.Printf("%-10d %-12.4f %-10d %-14d %-12d\n",
			sizes[i], r.FilterHitRatio, r.Cycles, r.NoCPackets[noc.CohProt],
			r.FDirBroadcasts)
	}
	fmt.Println("\nBigger filters push the hit ratio up and protocol traffic down until")
	fmt.Println("the guarded working set fits; Table 1's 48 entries sit at the knee.")
}

// runAxisSweep expands the -sweep knob axes and -wsweep workload-parameter
// axes on the -workload spelling (hybrid system) and emits the per-column
// CSV on stdout. Results arrive in input order whatever the worker count,
// so the CSV is byte-identical for any -workers N.
func runAxisSweep(workers int, daemon, workload string, cores int, sets, sweeps, wsweeps []string) {
	base, err := config.ParseOverrides(sets)
	if err != nil {
		log.Fatal(err)
	}
	if base.Cores == 0 {
		base.Cores = cores
	}
	axes, err := runner.ParseKnobAxes(sweeps)
	if err != nil {
		log.Fatal(err)
	}
	waxes, err := runner.ParseParamAxes(wsweeps)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := runner.Axes{
		Benchmarks: []string{workload},
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      workloads.Small,
		Base:       base,
		Knobs:      axes,
		WParams:    waxes,
	}.Specs()
	if err != nil {
		log.Fatal(err)
	}
	results, err := execute(workers, daemon, specs)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.SweepCSV(os.Stdout, specs, results); err != nil {
		log.Fatal(err)
	}
}

// execute runs the Specs locally or through a daemon.
func execute(workers int, daemon string, specs []system.Spec) ([]system.Results, error) {
	if daemon != "" {
		return runRemote(daemon, specs)
	}
	return runner.Collect(runner.Run(specs, runner.Options{
		Workers:  workers,
		Progress: os.Stderr,
	}))
}

// runRemote submits the sweep points to a hybridsimd and blocks for their
// Results — re-running the example against the same daemon costs nothing
// but the HTTP round-trip.
func runRemote(base string, specs []system.Spec) ([]system.Results, error) {
	c := &service.Client{Base: base}
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("daemon not healthy: %w", err)
	}
	records, err := c.Submit(ctx, service.SubmitRequest{Specs: specs}, true, 0)
	if err != nil {
		return nil, err
	}
	results := make([]system.Results, len(records))
	for i, rec := range records {
		if rec.Status != "done" || rec.Results == nil {
			return nil, fmt.Errorf("%s: %s (%s)", rec.Key, rec.Status, rec.Error)
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s cached=%v wall=%.1fms\n",
			i+1, len(records), rec.Spec.Key(), rec.Cached, rec.WallMS)
		results[i] = *rec.Results
	}
	return results, nil
}
