package service

// Tests for the advisor surface: GET /v1/runs/{key}/analysis over done and
// cached runs, the ?analyze=1 sweep summary, and the per-rule findings
// counter on /metrics.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestAnalysisEndpoint is the acceptance criterion: a misconfigured run's
// analysis names the misconfiguration, a healthy run's analysis is an empty
// (but well-formed) report, and both are pure observation — no rerun.
func TestAnalysisEndpoint(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	// A filter starved four ways below its default capacity.
	ov, err := config.ParseOverrides([]string{"cores=4", "filter_entries=4"})
	if err != nil {
		t.Fatal(err)
	}
	starved := system.Spec{System: config.HybridReal, Benchmark: "gups",
		Scale: workloads.Tiny, Overrides: ov}
	rec, err := client.Run(ctx, starved, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := client.Analysis(ctx, rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	var pressure bool
	for _, f := range rep.Findings {
		if f.Rule == "filter-pressure" {
			pressure = true
			if string(f.Severity) != "critical" {
				t.Fatalf("filter-pressure severity = %q, want critical: %+v", f.Severity, f)
			}
			if f.Suggestion == nil || f.Suggestion.Knob != "filter_entries" {
				t.Fatalf("filter-pressure should suggest filter_entries: %+v", f.Suggestion)
			}
		}
	}
	if !pressure {
		t.Fatalf("starved filter not diagnosed; findings: %+v", rep.Findings)
	}

	// A healthy run: HTTP 200, zero findings, and the stats-needing rules
	// reported as skipped (the daemon keeps results, not raw counters).
	healthy := system.Spec{System: config.HybridReal, Benchmark: "CG",
		Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 8}}
	rec, err = client.Run(ctx, healthy, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = client.Analysis(ctx, rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("healthy run fired findings: %+v", rep.Findings)
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("results-only analysis should report its skipped rules")
	}

	// Unknown key: a clean 404, not an empty report.
	resp, err := http.Get(client.Base + "/v1/runs/deadbeef/analysis")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", resp.StatusCode)
	}
}

// TestAnalysisServedFromCacheEntry restarts the daemon-side run table by
// analyzing a key known only to the result cache: the endpoint must fall
// back to the cached entry rather than 404.
func TestAnalysisServedFromCacheEntry(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	rec, err := client.Run(ctx, tinySpec("EP", config.CacheBased), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Forget the job record, keeping only the cache entry.
	srv.mu.Lock()
	delete(srv.runs, rec.Key)
	srv.mu.Unlock()

	if _, err := client.Analysis(ctx, rec.Key); err != nil {
		t.Fatalf("analysis over the cache entry failed: %v", err)
	}
}

// TestSweepAnalyzeSummary runs a small filter sweep with ?analyze=1 and
// checks the cross-run attribution rides the summary without disturbing the
// per-run records.
func TestSweepAnalyzeSummary(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})
	m := Matrix{
		Benchmarks: []string{"gups"},
		Systems:    []string{"hybrid"},
		Scale:      "tiny",
		Cores:      4,
		Sweep:      []runner.KnobAxis{{Name: "filter_entries", Values: []int{4, 48}}},
		Analyze:    true,
	}
	var recs int
	sum, err := client.Sweep(context.Background(), m, 0, func(r RunRecord) error {
		recs++
		if r.Results == nil {
			t.Fatalf("record %s has no results", r.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Analysis == nil {
		t.Fatal("analyze=1 sweep summary carries no analysis")
	}
	if sum.Analysis.Runs != recs || recs != 2 {
		t.Fatalf("analysis covers %d runs, streamed %d, want 2", sum.Analysis.Runs, recs)
	}
	if len(sum.Analysis.Axes) != 1 || sum.Analysis.Axes[0].Name != "filter_entries" {
		t.Fatalf("axes = %+v, want the swept filter_entries knob", sum.Analysis.Axes)
	}

	// The same sweep without the flag must not pay for (or leak) analysis.
	m.Analyze = false
	sum, err = client.Sweep(context.Background(), m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Analysis != nil {
		t.Fatal("analysis attached without analyze=1")
	}
}

// TestFindingsMetric checks the per-rule findings counter reaches /metrics
// with rule and severity labels.
func TestFindingsMetric(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	ov, err := config.ParseOverrides([]string{"cores=4", "filter_entries=4"})
	if err != nil {
		t.Fatal(err)
	}
	spec := system.Spec{System: config.HybridReal, Benchmark: "gups",
		Scale: workloads.Tiny, Overrides: ov}
	rec, err := client.Run(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Analysis(ctx, rec.Key); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`hybridsimd_analysis_findings_total{rule="filter-pressure",severity="critical"} 1`,
		"hybridsimd_timelines_capacity ",
		"hybridsimd_process_uptime_seconds",
		"hybridsimd_process_goroutines",
		"hybridsimd_process_heap_inuse_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
