// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-2, Figures 7-11) plus the repository's ablation
// studies, writing text reports to stdout and CSV/JSON data to -out.
//
// The 18 machine simulations of the full matrix (6 benchmarks x 3 memory
// systems) are independent, so they fan out across -workers goroutines;
// results are identical for any worker count.
//
// Usage:
//
//	experiments                 # everything, 64 cores, small scale
//	experiments -only fig9      # one exhibit
//	experiments -cores 16 -scale tiny -workers 8   # quick parallel pass
//	experiments -set mem_latency=200               # every exhibit, slower DRAM
//	experiments -sweep l1d_size=16384,32768,65536  # custom axis sweep (CSV)
//	experiments -workload stream -wsweep stride=8,64,512  # workload-param sweep
//	experiments -workloads                         # list the workload catalog
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// runCustomSweep expands -sweep knob axes and -wsweep workload-parameter
// axes on the hybrid system — over every registered workload, or just the
// -workload spelling when given — and prints the per-column CSV:
// design-space exploration beyond the paper's fixed exhibits.
func runCustomSweep(ctx context.Context, workload string, scale workloads.Scale,
	base config.Overrides, sweeps, wsweeps []string, opt runner.Options, outPath, outFormat string, analyze bool) {
	axes, err := runner.ParseKnobAxes(sweeps)
	if err != nil {
		fatalf("%v", err)
	}
	waxes, err := runner.ParseParamAxes(wsweeps)
	if err != nil {
		fatalf("%v", err)
	}
	var benches []string
	if workload != "" {
		benches = []string{workload}
	}
	specs, err := runner.Axes{
		Benchmarks: benches,
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      scale,
		Base:       base,
		Knobs:      axes,
		WParams:    waxes,
	}.Specs()
	if err != nil {
		fatalf("%v", err)
	}
	results, err := runner.Collect(runner.RunContext(ctx, specs, opt))
	if err != nil {
		fatalf("sweep: %v", err)
	}
	if err := report.SweepCSV(os.Stdout, specs, results); err != nil {
		fatalf("%v", err)
	}
	if analyze {
		// Stderr keeps the CSV stream on stdout machine-readable.
		report.SweepFindingsText(os.Stderr, analysis.Sweep(specs, results))
	}
	if outPath == "" {
		return
	}
	f, err := os.Create(outPath)
	if err != nil {
		fatalf("cannot write %s: %v", outPath, err)
	}
	defer f.Close()
	if outFormat == "json" {
		err = report.SweepJSON(f, specs, results)
	} else {
		err = report.SweepCSV(f, specs, results)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

func main() {
	cores := flag.Int("cores", 64, "core count")
	scaleName := flag.String("scale", "small", "workload scale: tiny, small")
	only := flag.String("only", "", "run one exhibit: table1, table2, fig7, fig8, fig9, fig10, fig11, ablation")
	outPath := flag.String("out", "", "also write all results to this file (.csv, .json or .jsonl)")
	format := flag.String("format", "", "output format for -out: csv, json or jsonl (default: from the file extension)")
	workers := flag.Int("workers", 0, "parallel simulations (0 = one per host CPU)")
	timeout := flag.Duration("timeout", 0, "abort the whole sweep after this much wall-clock (0 = unlimited)")
	workloadFlag := flag.String("workload", "", "narrow the custom sweep to one workload spelling name[:param=value,...] (see -workloads)")
	listWorkloads := flag.Bool("workloads", false, "list the workload catalog (names, params, defaults) and exit")
	analyze := flag.Bool("analyze", false, "append advisor findings: per-run bottlenecks after the figures, axis attribution after -sweep/ablation")
	var sets, sweeps, wsweeps runner.MultiFlag
	flag.Var(&sets, "set", "override one machine knob on every run, name=value (repeatable; cores=N wins over -cores)")
	flag.Var(&sweeps, "sweep", "run ONLY a custom knob sweep over the workloads on the hybrid system, name=v1,v2,... (repeatable; prints a per-column CSV and honors -out csv/json)")
	flag.Var(&wsweeps, "wsweep", "run ONLY a custom workload-parameter sweep, name=v1,v2,... (repeatable; combine with -workload)")
	planFlag := flag.String("plan", "", "run ONLY an adaptive plan with this strategy (knee, pareto, halving) over the -sweep/-wsweep axes; with no axes or -objective, asks the Fig9 filter-knee question")
	var objectives runner.MultiFlag
	flag.Var(&objectives, "objective", "-plan: objective or constraint clause — metric | min:metric | max:metric | metric>=X | metric<=X | metric~slack (repeatable)")
	budget := flag.Int("budget", 0, "-plan: max executed probes (0 = strategy default)")
	pick := flag.String("pick", "", "-plan knee: smallest (default) or largest satisfying axis value")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println("experiments", buildinfo.Version())
		return
	}

	if *listWorkloads {
		report.WorkloadCatalog(os.Stdout)
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	scale, err := workloads.ParseScale(*scaleName)
	if err != nil {
		fatalf("%v", err)
	}
	overrides, err := config.ParseOverrides(sets)
	if err != nil {
		fatalf("%v", err)
	}
	if overrides.Cores == 0 {
		overrides.Cores = *cores
	}
	opt := runner.Options{Workers: *workers, Progress: os.Stderr}
	outFormat := ""
	if *outPath != "" {
		outFormat = sinkFormat(*format, *outPath)
		ok := false
		for _, f := range report.Formats() {
			ok = ok || f == outFormat
		}
		if !ok {
			// Reject before burning minutes of simulation on it.
			fatalf("unknown format %q (want one of %v)", outFormat, report.Formats())
		}
	}
	if *planFlag != "" {
		if *only != "" {
			fatalf("-plan runs its own exhibit and cannot combine with -only %q", *only)
		}
		if outFormat != "" && outFormat != "json" {
			fatalf("-plan supports a json -out sink, not %q", outFormat)
		}
		runPlan(ctx, *planFlag, *workloadFlag, scale, overrides, sweeps, wsweeps, objectives, *budget, *pick, *outPath)
		return
	}
	if len(sweeps) > 0 || len(wsweeps) > 0 {
		if *only != "" && *only != "sweep" {
			fatalf("-sweep/-wsweep run their own exhibit and cannot combine with -only %q", *only)
		}
		if outFormat == "jsonl" {
			fatalf("-sweep supports csv and json sinks, not jsonl")
		}
		runCustomSweep(ctx, *workloadFlag, scale, overrides, sweeps, wsweeps, opt, *outPath, outFormat, *analyze)
		return
	}
	if *workloadFlag != "" {
		fatalf("-workload narrows a custom -sweep/-wsweep exhibit; the paper's figures always run the NAS six")
	}
	want := func(name string) bool { return *only == "" || *only == name }

	if want("table1") {
		// Materialize through Spec.Config so the printed machine matches
		// what the exhibit runs below actually simulate.
		report.Table1(os.Stdout, system.Spec{System: config.HybridReal, Overrides: overrides}.Config())
		fmt.Println()
	}
	if want("table2") {
		// Table 2 is the paper's exhibit: the NAS six. The synthetic
		// generators are listed by -workloads and characterized on demand.
		var benches []*compiler.Benchmark
		for _, n := range workloads.NAS() {
			benches = append(benches, workloads.Build(n, scale))
		}
		report.Table2(os.Stdout, benches)
		fmt.Println()
	}

	needsRuns := false
	for _, ex := range []string{"fig7", "fig8", "fig9", "fig10", "fig11"} {
		if want(ex) {
			needsRuns = true
		}
	}
	if *outPath != "" && !needsRuns {
		// -out exports the benchmark-matrix results; fail before burning
		// minutes of simulation on a run that would silently write nothing.
		fatalf("-out exports the benchmark matrix, which -only %q never runs", *only)
	}
	if !needsRuns && !want("ablation") {
		return
	}

	var all []system.Results
	var allSpecs []system.Spec

	if needsRuns {
		names := workloads.NAS()
		specs, err := runner.Axes{
			Benchmarks: names,
			Systems:    runner.AllSystems,
			Scale:      scale,
			Base:       overrides,
		}.Specs()
		if err != nil {
			fatalf("%v", err)
		}
		all, err = runner.Collect(runner.RunContext(ctx, specs, opt))
		if err != nil {
			fatalf("%v", err)
		}
		allSpecs = specs
		cacheRes := map[string]system.Results{}
		hybridRes := map[string]system.Results{}
		idealRes := map[string]system.Results{}
		for i, r := range all {
			switch specs[i].System {
			case config.CacheBased:
				cacheRes[r.Benchmark] = r
			case config.HybridReal:
				hybridRes[r.Benchmark] = r
			case config.HybridIdeal:
				idealRes[r.Benchmark] = r
			}
		}
		fmt.Println()
		if want("fig7") {
			report.Fig7(os.Stdout, names, hybridRes, idealRes)
			fmt.Println()
		}
		if want("fig8") {
			report.Fig8(os.Stdout, names, hybridRes)
			fmt.Println()
		}
		if want("fig9") {
			report.Fig9(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
		if want("fig10") {
			report.Fig10(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
		if want("fig11") {
			report.Fig11(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
	}

	if *analyze && needsRuns {
		// Per-run advisor pass over the benchmark matrix; results-only input,
		// so counter-level rules report as skipped (hybridsim -analyze has
		// them). Only runs with findings print.
		fmt.Println("Advisor findings across the benchmark matrix")
		any := false
		for i, r := range all {
			rep := analysis.Analyze(analysis.Input{Config: allSpecs[i].Config(), Results: r})
			if len(rep.Findings) == 0 {
				continue
			}
			any = true
			fmt.Printf("  %s:\n", allSpecs[i].Key())
			for _, f := range rep.Findings {
				fmt.Printf("    [%s] %s: %s\n", strings.ToUpper(string(f.Severity)), f.Rule, f.Message)
			}
		}
		if !any {
			fmt.Println("  none")
		}
		fmt.Println()
	}

	if want("ablation") {
		runAblation(ctx, scale, overrides, opt, *analyze)
	}

	if *outPath != "" && len(all) > 0 {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("cannot write %s: %v", *outPath, err)
		}
		defer f.Close()
		if err := report.WriteResults(f, outFormat, all); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}
}

// sinkFormat resolves -format, falling back to the -out extension and then
// to CSV.
func sinkFormat(format, path string) string {
	if format != "" {
		return format
	}
	if strings.HasSuffix(path, ".jsonl") {
		return "jsonl"
	}
	if strings.HasSuffix(path, ".json") {
		return "json"
	}
	return "csv"
}

// runPlan answers a question with an internal/planner strategy running
// in-process (no daemon, no cache: every probe simulates). With no axes and
// no goal it asks the Fig9 filter-size question — the smallest filter on IS
// holding the hit ratio within the analyzer's knee slack of the best — over
// a 16-value grid an exhaustive sweep would enumerate point by point.
func runPlan(ctx context.Context, strategy, workload string, scale workloads.Scale,
	base config.Overrides, sweeps, wsweeps, objectives []string, budget int, pick, outPath string) {
	axes, err := runner.ParseKnobAxes(sweeps)
	if err != nil {
		fatalf("%v", err)
	}
	waxes, err := runner.ParseParamAxes(wsweeps)
	if err != nil {
		fatalf("%v", err)
	}
	objs, cons, err := planner.ParseObjectives(objectives)
	if err != nil {
		fatalf("%v", err)
	}
	bench := workload
	if bench == "" {
		bench = "IS" // the most filter-sensitive benchmark, like the ablation
	}
	if len(axes)+len(waxes) == 0 && len(objs) == 0 && cons == nil {
		var vals []int
		for v := 4; v <= 64; v += 4 {
			vals = append(vals, v)
		}
		axes = []runner.KnobAxis{{Name: "filter_entries", Values: vals}}
		cons = &planner.Constraint{Metric: "hit_ratio", SlackOfBest: analysis.KneeHitSlack}
		fmt.Printf("plan: asking the Fig9 question — smallest filter_entries on %s holding hit ratio within %.0f%% of best\n",
			bench, (1-analysis.KneeHitSlack)*100)
	}
	q := planner.Question{
		Strategy: strategy,
		Axes: runner.Axes{
			Benchmarks: []string{bench},
			Systems:    []config.MemorySystem{config.HybridReal},
			Scale:      scale,
			Base:       base,
			Knobs:      axes,
			WParams:    waxes,
		},
		Constraint: cons,
		Pick:       pick,
		Budget:     budget,
	}
	if len(objs) == 1 {
		q.Objective = objs[0]
	} else {
		q.Objectives = objs
	}
	var probes []planner.Probe
	v, err := planner.Run(ctx, q, planner.LocalProber{}, func(p planner.Probe) error {
		probes = append(probes, p)
		fmt.Fprintf(os.Stderr, "probe %d: %s\n", p.Index, p.Key)
		return nil
	})
	if err != nil {
		fatalf("plan: %v", err)
	}
	report.PlanText(os.Stdout, probes, v)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatalf("cannot write %s: %v", outPath, err)
		}
		defer f.Close()
		if err := report.PlanJSON(f, probes, v); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
}

// runAblation sweeps the filter size on IS (the most filter-sensitive
// benchmark) — the design-choice study DESIGN.md calls Ablation A. It is
// the fixed-axis special case of the -sweep machinery.
func runAblation(ctx context.Context, scale workloads.Scale, base config.Overrides, opt runner.Options, analyze bool) {
	sizes := []int{8, 16, 32, 48, 64}
	specs, err := runner.Axes{
		Benchmarks: []string{"IS"},
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      scale,
		Base:       base,
		Knobs:      []runner.KnobAxis{{Name: "filter_entries", Values: sizes}},
	}.Specs()
	if err != nil {
		fatalf("ablation: %v", err)
	}
	results, err := runner.Collect(runner.RunContext(ctx, specs, opt))
	if err != nil {
		fatalf("ablation: %v", err)
	}
	fmt.Println("Ablation A: filter size sweep on IS (hybrid, real protocol)")
	fmt.Printf("  %-8s %-10s %-10s %-10s\n", "Entries", "HitRatio", "Cycles", "CohPkts")
	for i, r := range results {
		fmt.Printf("  %-8d %-10.4f %-10d %-10d\n",
			sizes[i], r.FilterHitRatio, r.Cycles, r.NoCPackets[noc.CohProt])
	}
	if analyze {
		report.SweepFindingsText(os.Stdout, analysis.Sweep(specs, results))
	}
}
