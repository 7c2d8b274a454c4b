package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestHealthzFields pins the liveness document: status, build version, and
// the queue/worker sizing a load balancer or operator would read.
func TestHealthzFields(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})

	resp, err := http.Get(client.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status     string `json:"status"`
		Version    string `json:"version"`
		QueueDepth *int   `json:"queue_depth"`
		QueueCap   *int   `json:"queue_cap"`
		Workers    *int   `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Error("version missing from healthz")
	}
	if h.QueueDepth == nil || h.QueueCap == nil || h.Workers == nil {
		t.Fatalf("healthz missing queue/worker fields: %+v", h)
	}
	if *h.QueueCap != 8 || *h.Workers != 2 {
		t.Errorf("queue_cap = %d, workers = %d, want 8, 2", *h.QueueCap, *h.Workers)
	}
}

// TestStatsFieldsAndCacheCounters pins GET /v1/stats: every documented field
// is present, and the cache counters advance across a cached re-POST.
func TestStatsFieldsAndCacheCounters(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("EP", config.CacheBased)
	ctx := context.Background()

	// Field presence on the raw wire document, so a renamed JSON tag fails
	// loudly here rather than silently in a dashboard.
	resp, err := http.Get(client.Base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"cache", "queue_depth", "queue_cap", "workers",
		"submitted", "completed", "failed", "rejected",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats response missing %q: %v", field, raw)
		}
	}

	before, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, spec, 0); err != nil {
		t.Fatal(err)
	}
	mid, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Cache.Misses != before.Cache.Misses+1 {
		t.Errorf("Misses %d -> %d, want +1 after a fresh run", before.Cache.Misses, mid.Cache.Misses)
	}
	if mid.Completed != before.Completed+1 {
		t.Errorf("Completed %d -> %d, want +1", before.Completed, mid.Completed)
	}

	if _, err := client.Run(ctx, spec, 0); err != nil {
		t.Fatal(err)
	}
	after, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache.Hits != mid.Cache.Hits+1 {
		t.Errorf("Hits %d -> %d, want +1 after a cached re-POST", mid.Cache.Hits, after.Cache.Hits)
	}
	if after.Cache.Misses != mid.Cache.Misses {
		t.Errorf("Misses %d -> %d, want unchanged on a cache hit", mid.Cache.Misses, after.Cache.Misses)
	}
	if after.QueueCap != 8 || after.Workers != 2 {
		t.Errorf("QueueCap = %d, Workers = %d, want 8, 2", after.QueueCap, after.Workers)
	}
}

// metricValue extracts the value of an un-labelled (or fully matching) sample
// line from a Prometheus text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s has unparseable value %q", name, m[1])
	}
	return v
}

// TestMetricsEndpoint scrapes /metrics after a fresh run and a cached re-POST
// and checks the queue, run, cache, latency, and request families all expose
// sensible values in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("EP", config.CacheBased)
	ctx := context.Background()

	for i := 0; i < 2; i++ { // second POST is the cache hit
		if _, err := client.Run(ctx, spec, 0); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)

	// The cached re-POST short-circuits at submit time (no worker, no job),
	// so only the fresh run counts as completed; the hit shows up in the
	// cache family instead.
	if v := metricValue(t, body, "hybridsimd_runs_completed_total"); v != 1 {
		t.Errorf("runs_completed_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "hybridsimd_cache_hits_total"); v < 1 {
		t.Errorf("cache_hits_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "hybridsimd_cache_misses_total"); v != 1 {
		t.Errorf("cache_misses_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "hybridsimd_queue_capacity"); v != 8 {
		t.Errorf("queue_capacity = %v, want 8", v)
	}
	if v := metricValue(t, body, "hybridsimd_run_duration_seconds_count"); v < 1 {
		t.Errorf("run_duration_seconds_count = %v, want >= 1", v)
	}
	if !strings.Contains(body, `hybridsimd_build_info{version=`) {
		t.Error("build_info gauge missing")
	}
	if !strings.Contains(body, `hybridsimd_http_requests_total{path="/v1/runs",code="200"}`) {
		t.Error("http_requests_total not counting POST /v1/runs")
	}
	for _, name := range []string{"hybridsimd_queue_depth", "hybridsimd_workers", "hybridsimd_runs_submitted_total"} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric family %s missing TYPE line", name)
		}
	}
}

// TestTimelineEndpoint drives the telemetry path over the wire: a submission
// with a telemetry block yields a retrievable non-empty time series, a
// telemetry-less key 404s, and a cached result still gets (exactly one)
// re-execution to produce its missing timeline.
func TestTimelineEndpoint(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	// Plain run first: result lands in the cache, no timeline.
	plainSpec := tinySpec("EP", config.CacheBased)
	plain, err := client.Run(ctx, plainSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Timeline(ctx, plain.Key); err == nil {
		t.Error("Timeline of a telemetry-less run did not error (want 404)")
	}

	// Telemetry-bearing submission of the same (cached) spec: must re-execute
	// once and produce the timeline.
	recs, err := client.Submit(ctx, SubmitRequest{
		Spec:      &plainSpec,
		Telemetry: &TelemetryOptions{Interval: 64},
	}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Status != "done" {
		t.Fatalf("record = %+v, want done", rec)
	}
	if rec.Key != plain.Key {
		t.Fatalf("telemetry changed the run key: %s vs %s (must not affect cache identity)", rec.Key, plain.Key)
	}

	ts, err := client.Timeline(ctx, rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Interval != 64 {
		t.Errorf("Interval = %d, want 64", ts.Interval)
	}
	if len(ts.Names) == 0 || len(ts.Epochs) == 0 {
		t.Fatalf("timeline empty: %d names, %d epochs", len(ts.Names), len(ts.Epochs))
	}
	for i, ep := range ts.Epochs {
		if len(ep.Deltas) != len(ts.Names) {
			t.Fatalf("epoch %d has %d deltas for %d names", i, len(ep.Deltas), len(ts.Names))
		}
	}

	// A re-POST with telemetry now short-circuits entirely: result and
	// timeline both exist.
	recs, err = client.Submit(ctx, SubmitRequest{
		Spec:      &plainSpec,
		Telemetry: &TelemetryOptions{Interval: 64},
	}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Cached {
		t.Error("third submission (result + timeline both present) was not served from cache")
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (plain run + one telemetry re-execution)", st.Cache.Misses)
	}
}

// TestTimelineUnknownKey404s checks the error shape of the timeline endpoint.
func TestTimelineUnknownKey404s(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	resp, err := http.Get(client.Base + "/v1/runs/deadbeef/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body = %v, %v", e, err)
	}
}

// TestTelemetryJoiningPendingRunGetsTimeline: a telemetry request that finds
// the same spec already queued without telemetry upgrades that pending job
// in place — one run, and it leaves the timeline the request asked for.
func TestTelemetryJoiningPendingRunGetsTimeline(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Hold the only worker, then queue a plain run behind it.
	slow := system.Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Small, Overrides: config.Overrides{Cores: 16}}
	if _, err := client.Submit(ctx, SubmitRequest{Spec: &slow}, false, 0); err != nil {
		t.Fatal(err)
	}
	waitForBusyWorker(t, srv)
	spec := tinySpec("EP", config.CacheBased)
	if _, err := client.Submit(ctx, SubmitRequest{Spec: &spec}, false, 0); err != nil {
		t.Fatal(err)
	}

	recs, err := client.Submit(ctx, SubmitRequest{
		Spec:      &spec,
		Telemetry: &TelemetryOptions{Interval: 64},
	}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != "done" {
		t.Fatalf("telemetry records = %+v, want one done run", recs)
	}
	if n := srv.submitted.Load(); n != 2 {
		t.Fatalf("submitted = %d, want 2 (the telemetry request joined the queued run)", n)
	}
	ts, err := client.Timeline(ctx, recs[0].Key)
	if err != nil {
		t.Fatalf("timeline of the joined run: %v", err)
	}
	if ts.Interval != 64 || len(ts.Epochs) == 0 {
		t.Fatalf("timeline interval %d with %d epochs, want 64 and some", ts.Interval, len(ts.Epochs))
	}
}

// TestTelemetryIntervalIsHonoured: a stored timeline answers only a request
// for its own interval. Another interval re-executes the run, and the store
// then holds the newer timeline.
func TestTelemetryIntervalIsHonoured(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	spec := tinySpec("EP", config.CacheBased)
	submit := func(interval uint64) RunRecord {
		t.Helper()
		recs, err := client.Submit(ctx, SubmitRequest{
			Spec:      &spec,
			Telemetry: &TelemetryOptions{Interval: interval},
		}, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Status != "done" {
			t.Fatalf("interval %d: records = %+v, want one done run", interval, recs)
		}
		ts, err := client.Timeline(ctx, recs[0].Key)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Interval != interval {
			t.Fatalf("asked for interval %d, timeline has %d", interval, ts.Interval)
		}
		return recs[0]
	}
	submit(64)
	if rec := submit(128); rec.Cached {
		t.Error("a request for interval 128 was answered from the interval-64 run")
	}
	if rec := submit(128); !rec.Cached {
		t.Error("a repeat at the stored interval was not served from cache")
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (one run per interval)", st.Cache.Misses)
	}
}

// TestTelemetryDoesNotJoinOtherInterval: a telemetry request that finds the
// spec queued for another interval does not join it; it runs after it and
// gets its own interval.
func TestTelemetryDoesNotJoinOtherInterval(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Hold the only worker, then queue an interval-64 run behind it.
	slow := system.Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Small, Overrides: config.Overrides{Cores: 16}}
	if _, err := client.Submit(ctx, SubmitRequest{Spec: &slow}, false, 0); err != nil {
		t.Fatal(err)
	}
	waitForBusyWorker(t, srv)
	spec := tinySpec("EP", config.CacheBased)
	if _, err := client.Submit(ctx, SubmitRequest{
		Spec:      &spec,
		Telemetry: &TelemetryOptions{Interval: 64},
	}, false, 0); err != nil {
		t.Fatal(err)
	}

	recs, err := client.Submit(ctx, SubmitRequest{
		Spec:      &spec,
		Telemetry: &TelemetryOptions{Interval: 128},
	}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != "done" {
		t.Fatalf("telemetry records = %+v, want one done run", recs)
	}
	ts, err := client.Timeline(ctx, recs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Interval != 128 {
		t.Fatalf("timeline interval %d, want 128", ts.Interval)
	}
}
