package repro

// Golden determinism test: the full stats output of one small exhibit per
// system is pinned byte-for-byte in testdata/golden_stats.txt. Any change to
// simulation behavior — event ordering, counter accounting, energy inputs —
// shows up as a diff here, which is what makes hot-path refactors (pooled
// continuations, interned counters, open-addressed directories) safe to land:
// they must reproduce this file exactly.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenStats .
//
// and review the diff like any other behavioral change.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

const goldenPath = "testdata/golden_stats.txt"

// goldenSpecs are the exhibits pinned by the golden file: one NAS benchmark
// with guarded accesses on every system flavor (CG exercises the protocol's
// filter/SPMDir/FilterDir paths), the lowest-locality benchmark on the real
// protocol (IS stresses FilterDir broadcasts), and a pointer-chasing synthetic
// (ptrchase looks SPMDir up on its guarded accesses but diverts none: every
// spm[i] reads rr=0 rw=0, so no golden run pins the Fig. 5d divert path).
func goldenSpecs() []system.Spec {
	return []system.Spec{
		{System: config.CacheBased, Benchmark: "CG", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		{System: config.HybridIdeal, Benchmark: "CG", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
		{System: config.HybridReal, Benchmark: "ptrchase", Params: "hot_pct=50", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}},
	}
}

// dumpRun builds the machine for spec, runs it, and renders every observable
// statistic deterministically.
func dumpRun(t *testing.T, w *bytes.Buffer, spec system.Spec) {
	t.Helper()
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(0)
	if err != nil {
		t.Fatalf("%s: %v", spec.Key(), err)
	}
	if err := m.Hier.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", spec.Key(), err)
	}

	fmt.Fprintf(w, "==== %s ====\n", spec.Key())
	fmt.Fprintf(w, "results: %+v\n", r)
	fmt.Fprintf(w, "engine: now=%d fired=%d\n", m.Eng.Now(), m.Eng.Fired())
	lat := m.Mesh.Latency()
	fmt.Fprintf(w, "mesh latency: %s\n", lat.String())
	w.WriteString(m.Mesh.String())
	w.WriteString(m.Hier.Stats().String())
	if m.Protocol != nil {
		w.WriteString(m.Protocol.Stats().String())
	}
	for i := 0; i < m.Dram.Count(); i++ {
		c := m.Dram.Controller(i)
		qd := c.QueueDelay()
		fmt.Fprintf(w, "dram[%d]: reads=%d writes=%d queue=%s\n",
			i, c.Reads(), c.Writes(), qd.String())
	}
	for i, s := range m.SPMs {
		fmt.Fprintf(w, "spm[%d]: r=%d w=%d rr=%d rw=%d dr=%d dw=%d\n",
			i, s.Reads(), s.Writes(), s.RemoteReads(), s.RemoteWrites(), s.DMAReads(), s.DMAWrites())
	}
	for i, d := range m.DMACs {
		fmt.Fprintf(w, "dmac[%d]: gets=%d puts=%d lines=%d rejected=%d tag=%s\n",
			i, d.Gets(), d.Puts(), d.LineTransfers(), d.Rejected(), d.TagLatency.String())
	}
	for i := 0; i < m.Cluster.Cores(); i++ {
		c := m.Cluster.Core(i)
		fmt.Fprintf(w, "core[%d]: retired=%d flushes=%d ifetches=%d finish=%d phases=%d/%d/%d\n",
			i, c.Retired(), c.Flushes(), c.IFetches(), c.FinishTime(),
			c.PhaseCycles(isa.PhaseControl), c.PhaseCycles(isa.PhaseSync), c.PhaseCycles(isa.PhaseWork))
	}
}

// TestGoldenStats compares the full stats dump of every golden exhibit
// against the committed golden file.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden exhibits take ~2s")
	}
	var buf bytes.Buffer
	for _, spec := range goldenSpecs() {
		dumpRun(t, &buf, spec)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, buf.Len())
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test -run TestGoldenStats .): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stats output diverged from %s.\nIf the behavior change is intended, regenerate with UPDATE_GOLDEN=1.\n%s",
			goldenPath, firstDiff(want, buf.Bytes()))
	}
}

// TestGoldenWorkersInvariant runs the golden specs through the sweep runner
// at several worker counts and asserts the rendered outputs are identical:
// parallelism must never leak into results.
func TestGoldenWorkersInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("golden exhibits take ~2s")
	}
	specs := goldenSpecs()
	var outputs [][]byte
	for _, workers := range []int{1, 4} {
		results, err := runner.Collect(runner.Run(specs, runner.Options{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.SweepJSON(&buf, specs, results); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("sweep output differs between -workers 1 and 4:\n%s", firstDiff(outputs[0], outputs[1]))
	}
}

// firstDiff renders the first differing line of two byte slices.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(wl), len(gl))
}
