// Command hybridsim runs one benchmark on one machine configuration and
// prints its measurements.
//
// Usage:
//
//	hybridsim -bench CG -system hybrid -cores 64 -scale small
//	hybridsim -bench CG -system hybrid -set l1d_size=65536 -set mem_latency=200
//	hybridsim -bench IS -system hybrid -sweep filter_entries=16,32,48,64 -csv
//	hybridsim -workload stream:stride=128 -sweep cores=4,8
//	hybridsim -workload ptrchase -wsweep hot_pct=0,25,50,75,100
//	hybridsim -workloads
//
// Systems: cache (baseline, 64KB L1D), hybrid (SPMs + the paper's coherence
// protocol), ideal (SPMs + oracle coherence). Every machine knob of
// config.Config can be overridden by name with -set (see config.Knobs), and
// every workload of the registry — the paper's NAS six plus the
// parameterized synthetic generators (-workloads lists them) — is
// addressable as "-workload name:param=value,...". Repeatable -sweep
// (machine knobs) and -wsweep (workload parameters) flags turn the
// invocation into an axis sweep printed as a per-column CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	benchName := flag.String("bench", "CG", "benchmark name (see -workloads)")
	workloadFlag := flag.String("workload", "", "workload spelling name[:param=value,...] — overrides -bench (see -workloads)")
	sysName := flag.String("system", "hybrid", "machine: cache, hybrid, ideal")
	cores := flag.Int("cores", 64, "core count (square-ish mesh is chosen automatically)")
	scaleName := flag.String("scale", "small", "workload scale: tiny, small")
	showConfig := flag.Bool("config", false, "print the Table 1 machine description and exit")
	csv := flag.Bool("csv", false, "emit results as CSV")
	maxEvents := flag.Uint64("max-events", 0, "abort after this many simulation events (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort the run after this much wall-clock (0 = unlimited)")
	listKnobs := flag.Bool("knobs", false, "list every -set/-sweep machine knob with its default and exit")
	listWorkloads := flag.Bool("workloads", false, "list the workload catalog (names, params, defaults) and exit")
	var sets, sweeps, wsweeps runner.MultiFlag
	flag.Var(&sets, "set", "override one machine knob, name=value (repeatable; cores=N wins over -cores)")
	flag.Var(&sweeps, "sweep", "sweep one machine knob, name=v1,v2,... (repeatable; prints a per-column CSV)")
	flag.Var(&wsweeps, "wsweep", "sweep one workload parameter, name=v1,v2,... (repeatable; prints a per-column CSV)")
	workers := flag.Int("workers", 0, "parallel simulations for -sweep/-wsweep (0 = one per host CPU)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	interval := flag.Uint64("interval", 0, "sample counters every N cycles into a time series (0 = off; single run only)")
	timelinePath := flag.String("timeline", "", "write the -interval time series here (.json = JSON, else CSV; default stdout CSV)")
	tracePath := flag.String("trace", "", "record an event trace here (.jsonl = JSON lines, else Chrome trace_event JSON for Perfetto)")
	traceEvents := flag.Int("trace-events", 1<<16, "event-trace ring-buffer capacity (oldest events drop first)")
	analyze := flag.Bool("analyze", false, "run the bottleneck advisor over the finished run and print its findings")
	findingsPath := flag.String("findings", "", "write -analyze findings as JSON here (default: text after the report; CSV mode: text to stderr)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println("hybridsim", buildinfo.Version())
		return
	}

	if *listWorkloads {
		report.WorkloadCatalog(os.Stdout)
		return
	}

	sys, err := config.ParseMemorySystem(*sysName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *listKnobs {
		def := config.ForSystem(sys)
		fmt.Printf("%-22s %s\n", "knob", "default ("+sys.String()+")")
		for _, k := range config.Knobs() {
			fmt.Printf("%-22s %d\n", k.Name, *k.Field(&def))
		}
		return
	}

	overrides, err := config.ParseOverrides(sets)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if overrides.Cores == 0 {
		overrides.Cores = *cores
	}

	if *showConfig {
		// Materialize through Spec.Config so the printed machine carries the
		// same derived adjustments (mesh re-dimensioning, controller cap) a
		// real run with these flags would get.
		report.Table1(os.Stdout, system.Spec{System: sys, Overrides: overrides}.Config())
		return
	}

	scale, err := workloads.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -workload carries an optional parameter payload; a bare -bench is the
	// parameterless spelling of the same thing.
	spelling := *benchName
	if *workloadFlag != "" {
		spelling = *workloadFlag
	}
	bench, params, err := workloads.ParseWorkload(spelling)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if len(sweeps) > 0 || len(wsweeps) > 0 {
		if *interval > 0 || *tracePath != "" {
			fmt.Fprintln(os.Stderr, "-interval/-trace apply to a single run, not a sweep")
			os.Exit(2)
		}
		runSweep(ctx, sys, workloads.FormatWorkload(bench, params), scale,
			*maxEvents, overrides, sweeps, wsweeps, *workers, *analyze)
		return
	}

	spec := system.Spec{
		System:    sys,
		Benchmark: bench,
		Params:    workloads.FormatParams(bench, params),
		Scale:     scale,
		Overrides: overrides,
		MaxEvents: *maxEvents,
	}

	// Telemetry: sampling (-interval) and tracing (-trace) ride one Recorder
	// attached to the machine; a run without either executes the exact same
	// code path as before (nil recorder).
	var rec *telemetry.Recorder
	if *interval > 0 || *tracePath != "" {
		events := 0
		if *tracePath != "" {
			events = *traceEvents
		}
		rec = telemetry.NewRecorder(*interval, events)
	}
	var r system.Results
	m, err := spec.Build()
	if err == nil {
		if rec != nil {
			m.Attach(rec)
		}
		r, err = m.RunContext(ctx, spec.MaxEvents)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		stopProfiles()
		os.Exit(1)
	}
	export := func() {
		if rec == nil {
			return
		}
		if err := exportTelemetry(rec, *timelinePath, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles()
			os.Exit(1)
		}
	}
	advise := func(textOut *os.File) {
		if !*analyze {
			return
		}
		// The raw hardware counters give every advisor rule its input.
		// Observation only: results are bit-identical either way.
		in := analysis.Input{Config: spec.Config(), Results: r, Stats: m.CounterSnapshot()}
		if rec != nil && rec.Interval() > 0 {
			ts := rec.Series()
			in.Series = &ts
		}
		rep := analysis.Analyze(in)
		if *findingsPath != "" {
			f, err := os.Create(*findingsPath)
			if err == nil {
				err = report.FindingsJSON(f, rep)
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				stopProfiles()
				os.Exit(1)
			}
			return
		}
		report.FindingsText(textOut, rep)
	}

	if *csv {
		report.CSV(os.Stdout, []system.Results{r})
		export()
		advise(os.Stderr) // keep stdout machine-readable
		return
	}

	fmt.Printf("%s on %s (%d cores, %s scale)\n", r.Benchmark, r.System, spec.Config().Cores, scale)
	if diff, ok := spec.ParamDiff(); ok && len(diff) > 0 {
		fmt.Print("  workload params ")
		for _, pv := range diff {
			fmt.Printf(" %s=%d", pv.Name, pv.Value)
		}
		fmt.Println()
	}
	if diff := spec.KnobDiff(); len(diff) > 0 {
		fmt.Print("  overrides       ")
		for _, kv := range diff {
			fmt.Printf(" %s=%d", kv.Name, kv.Value)
		}
		fmt.Println()
	}
	fmt.Printf("  cycles           %d\n", r.Cycles)
	fmt.Printf("  phase cycles     control=%d sync=%d work=%d\n",
		r.PhaseCycles[isa.PhaseControl], r.PhaseCycles[isa.PhaseSync], r.PhaseCycles[isa.PhaseWork])
	fmt.Printf("  retired instrs   %d\n", r.Retired)
	fmt.Printf("  NoC packets      %d (", r.TotalPkts)
	for c := noc.Category(0); c < noc.NumCategories; c++ {
		if c > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%s=%d", c, r.NoCPackets[c])
	}
	fmt.Println(")")
	e := r.Energy
	fmt.Printf("  energy (pJ)      total=%.0f cpus=%.0f caches=%.0f noc=%.0f others=%.0f spms=%.0f cohprot=%.0f\n",
		e.Total(), e.CPUs, e.Caches, e.NoC, e.Others, e.SPMs, e.CohProt)
	if sys == config.HybridReal {
		fmt.Printf("  filter hit ratio %.2f%%\n", r.FilterHitRatio*100)
		fmt.Printf("  LSQ flushes      %d\n", r.Flushes)
	}
	if sys != config.CacheBased {
		fmt.Printf("  DMA line xfers   %d\n", r.DMALineTransfers)
	}
	export()
	advise(os.Stdout)
}

// exportTelemetry writes the recorder's products: the sampled time series to
// timelinePath (.json = indented JSON, otherwise CSV; "" = CSV on stdout,
// after the run report) and the event trace to tracePath (.jsonl = JSON
// lines, otherwise Chrome trace_event JSON that Perfetto and chrome://tracing
// open directly).
func exportTelemetry(rec *telemetry.Recorder, timelinePath, tracePath string) error {
	if rec.Interval() > 0 {
		out := os.Stdout
		if timelinePath != "" {
			f, err := os.Create(timelinePath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		ts := rec.Series()
		var err error
		if strings.HasSuffix(timelinePath, ".json") {
			err = report.TimelineJSON(out, ts)
		} else {
			err = report.TimelineCSV(out, ts)
		}
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	if tr := rec.Tracer(); tr != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		events := tr.Events()
		if strings.HasSuffix(tracePath, ".jsonl") {
			err = telemetry.WriteJSONL(f, events)
		} else {
			err = telemetry.WriteChromeTrace(f, events, map[string]string{
				"dropped": fmt.Sprint(tr.Dropped()),
			})
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d dropped from the ring)\n",
			len(events), tracePath, tr.Dropped())
	}
	return nil
}

// startProfiles begins CPU profiling and/or arranges a post-run heap
// profile. The returned stop function is idempotent and must run before the
// process exits for the profiles to be complete.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
}

// runSweep expands -sweep knob axes and -wsweep workload-parameter axes
// over the selected workload and system and prints the per-column CSV
// (report.SweepCSV).
func runSweep(ctx context.Context, sys config.MemorySystem, workload string, scale workloads.Scale,
	maxEvents uint64, base config.Overrides, sweeps, wsweeps []string, workers int, analyze bool) {
	axes, err := runner.ParseKnobAxes(sweeps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	waxes, err := runner.ParseParamAxes(wsweeps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	specs, err := runner.Axes{
		Benchmarks: []string{workload},
		Systems:    []config.MemorySystem{sys},
		Scale:      scale,
		MaxEvents:  maxEvents,
		Base:       base,
		Knobs:      axes,
		WParams:    waxes,
	}.Specs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	results, err := runner.Collect(runner.RunContext(ctx, specs, runner.Options{Workers: workers, Progress: os.Stderr}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
		os.Exit(1)
	}
	if err := report.SweepCSV(os.Stdout, specs, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if analyze {
		// Stderr keeps the CSV stream on stdout machine-readable.
		report.SweepFindingsText(os.Stderr, analysis.Sweep(specs, results))
	}
}
