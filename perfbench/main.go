// Command perfbench is the repository's layered benchmark. It drives three
// workloads through the simulator's public entry points and prints one JSON
// result line: end-to-end metrics on an untraced run (-trace 0), per-layer
// metrics on a separate traced run (-trace 1). README.md in this directory
// maps every metric to its layer and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failed checks. Every failure keeps its first
// few messages for stderr; the count is what the result reports.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) op() { t.attempted++ }

// fail records one failed operation or check.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check records a failure when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.fail(format, args...)
	}
}

// report is what one workload run produced.
type report struct {
	tally
	metrics map[string]metric
	digest  string // hash of the results the workload checks; a function of (workload, seed)
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

var workloadNames = []string{"sim-hybrid", "sim-cache", "fleet"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (picks Spec.Seed and the fleet's spec pool)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time of an untraced run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal("bad -trace %d (want 0 or 1)", trace)
	}
	if o.seconds <= 0 {
		fatal("bad -seconds %g", o.seconds)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal("scratch dir: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var (
		rep *report
		err error
	)
	switch o.workload {
	case "sim-hybrid", "sim-cache":
		rep, err = runSim(ctx, o)
	case "fleet":
		rep, err = runFleet(ctx, o)
	default:
		fatal("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fatal("%s: %v", o.workload, err)
	}
	if o.trace {
		rep.set("error_rate", "ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printContext(o, rep)
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// scratchDir holds the disk-tier files of the rescache driver; it lives in
// the build directory so a run writes nowhere else.
const scratchDir = ".bench_build/scratch"

// printContext writes the host context line that precedes the result, so a
// recorded result says what it was measured on.
func printContext(o options, rep *report) {
	ctx := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"cpu_model":  cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"digest":     rep.digest,
	}
	if _, ok := simBenches[o.workload]; ok {
		ctx["spec_seed"] = simSeed(o.seed)
	}
	b, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rssMB reads the process's current resident set from /proc/self/status.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSS samples the resident set every few milliseconds and keeps the
// peak since the last take. max_rss_mb is the median over passes of each
// pass's peak: one late garbage collection raises a single pass's peak,
// not the reported figure.
type peakRSS struct {
	mu   sync.Mutex
	peak float64
	quit chan struct{}
	done chan struct{}
}

func startPeakRSS() *peakRSS {
	p := &peakRSS{peak: rssMB(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
				v := rssMB()
				p.mu.Lock()
				p.peak = max(p.peak, v)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// take returns the peak since the previous take and restarts from now.
func (p *peakRSS) take() float64 {
	v := rssMB()
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := max(p.peak, v)
	p.peak = v
	return peak
}

func (p *peakRSS) stop() {
	close(p.quit)
	<-p.done
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix64 derives well-spread values from a seed and a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
