package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/rescache"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// newTestDaemon stands up a full daemon over httptest and returns a client
// for it. Both are torn down with the test.
func newTestDaemon(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	srv := New(opt)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func tinySpec(bench string, sys config.MemorySystem) system.Spec {
	return system.Spec{System: sys, Benchmark: bench, Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}}
}

// TestSameSpecTwiceServedFromCache is the acceptance criterion: the second
// submission of an identical Spec returns byte-identical Results from the
// cache — the hit counter increments and no second Execute happens.
func TestSameSpecTwiceServedFromCache(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("EP", config.CacheBased)

	first, err := client.Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first run reported cached")
	}
	if first.Results == nil || first.Results.Cycles == 0 {
		t.Fatalf("first run results = %+v, want non-zero cycles", first.Results)
	}

	second, err := client.Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second run of the same Spec was not served from cache")
	}
	b1, _ := json.Marshal(first.Results)
	b2, _ := json.Marshal(second.Results)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached Results not byte-identical:\n first %s\nsecond %s", b1, b2)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("stats = %+v, want a cache hit recorded", st.Cache)
	}
	if st.Cache.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 Execute for 2 submissions", st.Cache.Misses)
	}
}

// TestSweepMatrixMatchesDirectRun is the second acceptance criterion: the
// full default matrix (every registered workload x every system) over HTTP
// must reproduce a direct runner.Run of the same Specs exactly.
func TestSweepMatrixMatchesDirectRun(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 64})

	specs := runner.Matrix(workloads.Names(), runner.AllSystems, workloads.Tiny, 4)
	n := len(specs)
	if want := len(workloads.Names()) * len(runner.AllSystems); n != want {
		t.Fatalf("matrix = %d specs, want %d", n, want)
	}
	want := map[string]system.Results{}
	for _, r := range runner.Run(specs, runner.Options{}) {
		if r.Err != nil {
			t.Fatalf("direct run %s: %v", r.Spec.Key(), r.Err)
		}
		want[r.Spec.Hash()] = r.Res
	}

	got := map[string]system.Results{}
	sum, err := client.Sweep(context.Background(),
		Matrix{Scale: "tiny", Cores: 4}, 0,
		func(rec RunRecord) error {
			if rec.Status != "done" || rec.Results == nil {
				t.Fatalf("sweep record %s: status %s error %q", rec.Key, rec.Status, rec.Error)
			}
			if rec.Total != n {
				t.Fatalf("record Total = %d, want %d", rec.Total, n)
			}
			got[rec.Key] = *rec.Results
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != n || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want %d clean runs", sum, n)
	}
	if len(got) != n {
		t.Fatalf("streamed %d distinct runs, want %d", len(got), n)
	}
	for key, w := range want {
		if got[key] != w {
			t.Fatalf("run %s over HTTP diverged from direct runner.Run:\n got %+v\nwant %+v", key, got[key], w)
		}
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("IS", config.HybridReal)

	runs, err := client.Submit(context.Background(), SubmitRequest{Spec: &spec}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Key != spec.Hash() {
		t.Fatalf("submit = %+v, want one run keyed %s", runs, spec.Hash())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rec, err := client.Wait(ctx, runs[0].Key, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || rec.Results == nil || rec.Results.Cycles == 0 {
		t.Fatalf("polled record = %+v, want done with cycles", rec)
	}
	if rec.Spec != spec {
		t.Fatalf("polled Spec = %+v, want %+v", rec.Spec, spec)
	}
}

func TestMatrixSubmission(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 32})
	runs, err := client.Submit(context.Background(), SubmitRequest{
		Matrix: &Matrix{Benchmarks: []string{"EP"}, Systems: []string{"cache", "ideal"}, Scale: "tiny", Cores: 4},
	}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("matrix expanded to %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if r.Status != "done" || r.Results == nil || r.Results.Cycles == 0 {
			t.Fatalf("run %s = %s (%s), want done with cycles", r.Key, r.Status, r.Error)
		}
	}
}

func TestBadSubmissionsRejected(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	cases := []SubmitRequest{
		{},                             // nothing set
		{Matrix: &Matrix{Scale: "xl"}}, // unknown scale
		{Matrix: &Matrix{Scale: "tiny", Systems: []string{"quantum"}}}, // unknown system
	}
	for i, req := range cases {
		if _, err := client.Submit(ctx, req, false, 0); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("case %d: err = %v, want 400", i, err)
		}
	}

	// An unknown benchmark dies inside Spec.UnmarshalJSON.
	body := `{"spec":{"system":"cache","benchmark":"LU","scale":"tiny","cores":4}}`
	resp, err := http.Post(client.Base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d, want 400", resp.StatusCode)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	// One worker, queue of one: the worker parks on a gated run while the
	// queue holds one more, so a third distinct submission must shed.
	cache, _ := rescache.New(8, "")
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 1, Cache: cache})

	// Occupy the worker deterministically: submit a small-scale run, which
	// takes long enough that the remaining submissions land while it runs.
	slow := system.Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Small, Overrides: config.Overrides{Cores: 16}}
	if _, err := client.Submit(context.Background(), SubmitRequest{Spec: &slow}, false, 0); err != nil {
		t.Fatal(err)
	}
	waitForBusyWorker(t, srv)

	fill := tinySpec("EP", config.CacheBased)
	if _, err := client.Submit(context.Background(), SubmitRequest{Spec: &fill}, false, 0); err != nil {
		t.Fatal(err)
	}
	over := tinySpec("IS", config.CacheBased)
	_, err := client.Submit(context.Background(), SubmitRequest{Spec: &over}, false, 0)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("overflow submit err = %v, want 429", err)
	}

	// The shed must carry a retry hint for backoff-aware clients and peers.
	body, _ := json.Marshal(SubmitRequest{Spec: &over})
	resp, err := http.Post(client.Base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed is missing the Retry-After hint")
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Rejected)
	}
}

// waitForBusyWorker blocks until the queue has been drained by the worker,
// i.e. the slow job left the queue and is executing.
func waitForBusyWorker(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the slow job")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDuplicatePendingSubmissionSharesOneJob(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	slow := system.Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Small, Overrides: config.Overrides{Cores: 16}}
	for i := 0; i < 3; i++ {
		if _, err := client.Submit(context.Background(), SubmitRequest{Spec: &slow}, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.submitted.Load(); n != 1 {
		t.Fatalf("submitted = %d jobs for 3 identical POSTs, want 1", n)
	}
}

func TestSweepClientDisconnectCancelsWork(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 32})
	ctx, cancel := context.WithCancel(context.Background())

	// Cancel the sweep after its first streamed line; the single worker
	// guarantees most of the matrix is still queued at that point.
	_, err := client.Sweep(ctx, Matrix{Scale: "tiny", Cores: 4}, 0, func(rec RunRecord) error {
		cancel()
		return nil
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	// Every queued job shares the request context, so the workers drain
	// them as failures without executing; far fewer than the full matrix
	// completes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := srv.completed.Load() + srv.failed.Load()
		if done+uint64(len(srv.queue)) >= 1 && len(srv.queue) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := srv.completed.Load(); c >= 18 {
		t.Fatalf("completed = %d runs after early disconnect, want far fewer than the matrix", c)
	}
}

func TestHealthz(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 1})
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestGetUnknownRun404s(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 1})
	_, err := client.Get(context.Background(), "deadbeef")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestGetRunFromCacheOnlyKey(t *testing.T) {
	// A run that arrived via a sweep is visible to GET /v1/runs/{key}
	// through the cache, with its full Spec intact.
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	if _, err := client.Sweep(context.Background(),
		Matrix{Benchmarks: []string{"EP"}, Systems: []string{"cache"}, Scale: "tiny", Cores: 4}, 0, nil); err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("EP", config.CacheBased)
	rec, err := client.Get(context.Background(), spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || !rec.Cached || rec.Spec != spec {
		t.Fatalf("record = %+v, want cached done run with the original Spec", rec)
	}
}

// TestCloseFinishesQueuedJobs: shutting the server down must complete every
// queued job with the cancellation error so nothing blocked on a job hangs.
func TestCloseFinishesQueuedJobs(t *testing.T) {
	srv := New(Options{Workers: 1, QueueDepth: 4})
	slow := system.Spec{System: config.HybridReal, Benchmark: "CG", Scale: workloads.Small, Overrides: config.Overrides{Cores: 16}}
	if _, err := srv.acquire(slow, slow.Hash(), waiter{}); err != nil {
		t.Fatal(err)
	}
	waitForBusyWorker(t, srv)
	ep := tinySpec("EP", config.CacheBased)
	queued, err := srv.acquire(ep, ep.Hash(), waiter{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case <-queued.done:
	case <-time.After(10 * time.Second):
		t.Fatal("queued job never finished after Close")
	}
	if rec := queued.record(); rec.Status != "failed" {
		t.Fatalf("queued job status = %s after Close, want failed", rec.Status)
	}
}

// TestRunInsideSweepIsVisible: GET /v1/runs/{key} sees a run that an open
// sweep has in flight, not only runs a POST submitted.
func TestRunInsideSweepIsVisible(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	m := Matrix{Benchmarks: []string{"CG"}, Systems: []string{"hybrid"}, Scale: "small", Cores: 16}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	key := specs[0].Hash()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		client.Sweep(ctx, m, 0, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := client.Get(context.Background(), key)
		if err == nil {
			if rec.Status != "pending" && rec.Status != "running" {
				t.Fatalf("run inside the sweep has status %q, want pending or running", rec.Status)
			}
			break
		}
		if !strings.Contains(err.Error(), "404") {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the sweep's run never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-swept
}

// TestSweepWaitsForQueueSlots: a sweep larger than the queue is never shed;
// each run waits for a worker to free a slot.
func TestSweepWaitsForQueueSlots(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 1})
	m := Matrix{Benchmarks: []string{"EP", "IS", "CG"}, Systems: []string{"cache", "hybrid"}, Scale: "tiny", Cores: 4}
	sum, err := client.Sweep(context.Background(), m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 6 || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want 6 clean runs", sum)
	}
	if n := srv.rejected.Load(); n != 0 {
		t.Fatalf("rejected = %d, want 0 (streams wait, they are not shed)", n)
	}
}

// TestConcurrentWaitersShareOneRun: POSTs and sweep streams racing for the
// same Spec share one run, whichever kind of request registered it, and
// all get the same answer.
func TestConcurrentWaitersShareOneRun(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	m := Matrix{Benchmarks: []string{"IS"}, Systems: []string{"hybrid"}, Scale: "tiny", Cores: 4}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]system.Results, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				rec, err := client.Run(context.Background(), specs[0], 0)
				if err == nil {
					results[i] = *rec.Results
				}
				errs[i] = err
				return
			}
			_, errs[i] = client.Sweep(context.Background(), m, 0, func(rec RunRecord) error {
				if rec.Results == nil {
					return errors.New(rec.Error)
				}
				results[i] = *rec.Results
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different answer", i)
		}
	}
	if n := srv.cache.Stats().Misses; n != 1 {
		t.Fatalf("misses = %d for %d concurrent requests of one Spec, want 1", n, callers)
	}
}
