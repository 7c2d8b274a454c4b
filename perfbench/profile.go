package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// selfLayers are the layers whose share of sampled host CPU is reported as
// <layer>.self_pct, in report order.
var selfLayers = []string{
	"sim", "noc", "coherence", "cache", "mem", "core", "dma", "spm", "cpu", "compiler", "runtime",
}

// chargeLayers are the packages a sample can be charged to: the reported
// layers plus the ones that drive them. A package outside this set — the
// interned counters, the ISA and scheduler helpers, the standard library
// other than the runtime — is charged to the innermost charge layer that
// called it, so a layer's self time includes the helpers it calls.
var chargeLayers = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range selfLayers {
		m[l] = true
	}
	for _, l := range []string{"system", "workloads", "telemetry", "rescache", "service", "cluster", "runner", "metrics"} {
		m[l] = true
	}
	return m
}()

// layerOf maps a profiled function name to its layer: "repro/internal/noc"
// functions to "noc", the runtime (including GC and the scheduler) to
// "runtime", anything else to "".
func layerOf(fn string) string {
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return pkg[len("repro/internal/"):]
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// chargeOf picks the layer one sampled stack (leaf first) is charged to. A
// runtime leaf is runtime self time (allocation, GC, scheduling); otherwise
// the innermost frame in a charge layer takes the sample. Runtime frames
// above the leaf — goroutine entry points — never take it.
func chargeOf(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	if layerOf(stack[0]) == "runtime" {
		return "runtime"
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "runtime" && chargeLayers[l] {
			return l
		}
	}
	return ""
}

// cpuProfile is a runtime/pprof CPU profile written to a file in the
// scratch directory, where `go tool pprof` reads it back.
type cpuProfile struct{ f *os.File }

func startProfile() (*cpuProfile, error) {
	f, err := os.CreateTemp(scratchDir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and returns the sampled CPU time charged to each
// layer, read from `go tool pprof -traces`. The profile file is removed.
func (p *cpuProfile) stop(ctx context.Context) (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	p.f.Close()
	defer os.Remove(p.f.Name())
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", p.f.Name())
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+scratchDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return chargeTraces(out)
}

// chargeTraces reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each a sample's value beside its leaf frame followed by
// the caller frames, one per line.
func chargeTraces(out []byte) (map[string]time.Duration, error) {
	by := map[string]time.Duration{}
	var (
		stack []string
		value time.Duration
	)
	flush := func() {
		if len(stack) > 0 {
			by[chargeOf(stack)] += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		f := strings.Fields(line)
		if !inTraces || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			// The value line; sample labels, when present, precede it.
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue
			}
			value, stack = d, append(stack, f[1])
			continue
		}
		stack = append(stack, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTraces {
		return nil, fmt.Errorf("go tool pprof printed no traces")
	}
	return by, nil
}

// setSelfPct sets <layer>.self_pct for every reported layer from the CPU
// time charged to each, plus profile.named_pct (their sum) and
// profile.samples (at the runtime/pprof default of 100 a second).
func setSelfPct(rep *report, by map[string]time.Duration) {
	var total time.Duration
	for _, d := range by {
		total += d
	}
	var named float64
	for _, l := range selfLayers {
		pct := 100 * ratio(float64(by[l]), float64(total))
		named += pct
		rep.set(l+".self_pct", "%", pct)
	}
	rep.set("profile.named_pct", "%", named)
	rep.set("profile.samples", "count", float64(total/(10*time.Millisecond)))
}
