package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/system"
)

// fleetNode is one in-process fleet member: a full daemon plus its cluster
// view, served over httptest through a swappable handler.
type fleetNode struct {
	srv     *Server
	cl      *cluster.Cluster
	client  *Client
	handler *atomic.Value // http.Handler
}

// newFleet stands up len(ids) federated daemons. Each member's URL must be
// known before its cluster is built (the membership list includes self), so
// the httptest servers start with a swappable handler that is bound to the
// real daemon handler once it exists. Health loops are disabled; liveness
// moves only through request-path failures, keeping tests deterministic.
func newFleet(t *testing.T, ids []string, opt Options) map[string]*fleetNode {
	t.Helper()
	handlers := make(map[string]*atomic.Value, len(ids))
	members := make([]cluster.Node, 0, len(ids))
	for _, id := range ids {
		hv := &atomic.Value{}
		hv.Store(http.Handler(http.NotFoundHandler()))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hv.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		handlers[id] = hv
		members = append(members, cluster.Node{ID: id, URL: ts.URL})
	}
	fleet := make(map[string]*fleetNode, len(ids))
	for i, id := range ids {
		cl, err := cluster.New(cluster.Options{Self: id, Peers: members, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		o := opt
		o.Cache = nil // one independent cache per member
		o.Cluster = cl
		srv := New(o)
		t.Cleanup(srv.Close)
		handlers[id].Store(srv.Handler())
		fleet[id] = &fleetNode{srv: srv, cl: cl,
			client: &Client{Base: members[i].URL}, handler: handlers[id]}
	}
	return fleet
}

// fleetMisses sums local Executes across the fleet — the fleet-wide
// deduplication invariant is that any Spec costs exactly one.
func fleetMisses(f map[string]*fleetNode) uint64 {
	var n uint64
	for _, node := range f {
		n += node.srv.cache.Stats().Misses
	}
	return n
}

// TestFleetComputesSpecOnce: submitting the same Spec to both members costs
// one simulation fleet-wide — the non-owner forwards to the owner, whose
// in-flight registry and cache absorb the second request.
func TestFleetComputesSpecOnce(t *testing.T) {
	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 16})
	spec := tinySpec("EP", config.CacheBased)
	ctx := context.Background()

	if _, err := fleet["a"].client.Run(ctx, spec, 0); err != nil {
		t.Fatal(err)
	}
	second, err := fleet["b"].client.Run(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetMisses(fleet); got != 1 {
		t.Fatalf("fleet-wide misses = %d for 2 submissions of one Spec, want 1", got)
	}
	if second.Results == nil || second.Results.Cycles == 0 {
		t.Fatalf("second submission results = %+v, want real cycles", second.Results)
	}
}

// TestFleetPeerFillAvoidsRecompute: a list submission to a non-owner is
// forwarded to the owner, whose cached answer is adopted (a peer fill)
// instead of recomputed.
func TestFleetPeerFillAvoidsRecompute(t *testing.T) {
	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 16})
	spec := tinySpec("IS", config.CacheBased)
	key := spec.Hash()
	ctx := context.Background()

	owner, _ := fleet["a"].cl.Owner(key)
	other := "b"
	if owner == "b" {
		other = "a"
	}

	// Compute on the owner, then submit the same Spec as a list to the
	// other member: it must forward and adopt the owner's cached answer.
	if _, err := fleet[owner].client.Submit(ctx, SubmitRequest{Specs: []system.Spec{spec}}, true, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := fleet[other].client.Submit(ctx, SubmitRequest{Specs: []system.Spec{spec}}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != "done" || !recs[0].Cached {
		t.Fatalf("non-owner record = %+v, want done and served from the fleet", recs)
	}
	if got := fleetMisses(fleet); got != 1 {
		t.Fatalf("fleet-wide misses = %d, want 1 (adopted, no recompute)", got)
	}
	if pf := fleet[other].srv.cache.Stats().PeerFills; pf != 1 {
		t.Fatalf("non-owner PeerFills = %d, want 1", pf)
	}
}

// TestFleetListSubmissionComputesOnOwner: a list submission of a spec the
// other member owns is computed there, not locally — every entry point
// routes to the owner, not only single-spec POSTs.
func TestFleetListSubmissionComputesOnOwner(t *testing.T) {
	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 16})
	spec := tinySpec("EP", config.HybridReal)
	owner, _ := fleet["a"].cl.Owner(spec.Hash())
	other := "b"
	if owner == "b" {
		other = "a"
	}

	recs, err := fleet[other].client.Submit(context.Background(),
		SubmitRequest{Specs: []system.Spec{spec}}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != "done" || recs[0].Results == nil || recs[0].Cached {
		t.Fatalf("record = %+v, want a done, freshly computed run", recs)
	}
	if m := fleet[owner].srv.cache.Stats().Misses; m != 1 {
		t.Fatalf("owner misses = %d, want 1 (computed on the owner)", m)
	}
	if m := fleet[other].srv.cache.Stats().Misses; m != 0 {
		t.Fatalf("non-owner misses = %d, want 0 (never computed locally)", m)
	}
	if pf := fleet[other].srv.cache.Stats().PeerFills; pf != 1 {
		t.Fatalf("non-owner PeerFills = %d, want 1 (the adopted answer)", pf)
	}
}

// TestFleetOwnerShedFallsBackLocally: an owner that sheds every forwarded
// POST is retried twice on the non-owner's peer client, whose clock is
// hooked so nothing really sleeps; the run is then admitted locally and
// answered done, computed by the non-owner and never by the owner.
func TestFleetOwnerShedFallsBackLocally(t *testing.T) {
	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 16})
	spec := tinySpec("EP", config.CacheBased)
	owner, _ := fleet["a"].cl.Owner(spec.Hash())
	other := "b"
	if owner == "b" {
		other = "a"
	}

	var sheds atomic.Int32
	inner := fleet[owner].handler.Load().(http.Handler)
	fleet[owner].handler.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.Header.Get(cluster.ForwardedHeader) != "" {
			sheds.Add(1)
			writeShed(w, ErrQueueFull)
			return
		}
		inner.ServeHTTP(w, r)
	})))
	var slept []time.Duration
	fleet[other].srv.peers[owner].sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}

	rec, err := fleet[other].client.Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || rec.Results == nil {
		t.Fatalf("record = %+v, want done with results", rec)
	}
	if got := sheds.Load(); got != 1+peerRetries {
		t.Fatalf("owner shed %d forwards, want %d (the first and %d retries)", got, 1+peerRetries, peerRetries)
	}
	if len(slept) != peerRetries {
		t.Fatalf("peer client waited %d times, want %d", len(slept), peerRetries)
	}
	if m := fleet[owner].srv.cache.Stats().Misses; m != 0 {
		t.Fatalf("owner misses = %d, want 0 (it shed every forward)", m)
	}
	if m := fleet[other].srv.cache.Stats().Misses; m != 1 {
		t.Fatalf("non-owner misses = %d, want 1 (the local fallback)", m)
	}
}

// sweepProjection reduces a streamed sweep to its deterministic fields:
// index, key, and results. cached/wall_ms describe where and how fast a run
// was answered — observational, legitimately different across topologies.
func sweepProjection(t *testing.T, c *Client, m Matrix) []string {
	t.Helper()
	var lines []string
	sum, err := c.Sweep(context.Background(), m, 0, func(rec RunRecord) error {
		if rec.Status != "done" || rec.Results == nil {
			t.Fatalf("sweep record %s: status %s error %q", rec.Key, rec.Status, rec.Error)
		}
		res, err := json.Marshal(rec.Results)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%d %s %s", rec.Index, rec.Key, res))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("sweep failed %d runs", sum.Failed)
	}
	return lines
}

// TestFleetSweepMatchesSingleNode is the fleet's acceptance criterion: a
// sweep fanned out over two members streams records whose deterministic
// fields are identical to the same sweep on a standalone daemon.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	m := Matrix{Scale: "tiny", Cores: 4,
		Benchmarks: []string{"EP", "IS", "CG"}, Systems: []string{"cache", "hybrid"}}

	_, solo := newTestDaemon(t, Options{Workers: 2, QueueDepth: 32})
	want := sweepProjection(t, solo, m)

	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 32})
	got := sweepProjection(t, fleet["a"].client, m)

	if len(got) != len(want) {
		t.Fatalf("fleet sweep streamed %d records, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fleet sweep line %d diverged:\n fleet %s\n  solo %s", i, got[i], want[i])
		}
	}
	// The fan-out must actually have used both members: every spec was
	// computed exactly once somewhere, none twice.
	if misses := fleetMisses(fleet); misses != uint64(len(want)) {
		t.Fatalf("fleet-wide misses = %d for %d distinct specs", misses, len(want))
	}
}

// TestFleetSweepDegradesWhenPeerDies: with the only peer unreachable, a
// sweep still completes — remote-owned specs degrade to local compute after
// the forward fails.
func TestFleetSweepDegradesWhenPeerDies(t *testing.T) {
	fleet := newFleet(t, []string{"a", "b"}, Options{Workers: 2, QueueDepth: 32})
	// Make b unreachable by closing its cluster and pointing a's view at a
	// dead server: simplest is to shut b's daemon down via its test server
	// teardown — but cleanup order is owned by t. Instead, close b's srv so
	// its handler errors, which a's Forward treats as a failed remote run.
	fleet["b"].srv.Close()

	m := Matrix{Scale: "tiny", Cores: 4,
		Benchmarks: []string{"EP", "IS"}, Systems: []string{"cache", "ideal"}}
	lines := sweepProjection(t, fleet["a"].client, m)
	if len(lines) != 4 {
		t.Fatalf("degraded sweep streamed %d records, want 4", len(lines))
	}
}

// TestClientRetriesShedUnderConcurrency: satellite coverage for the client
// backoff path — concurrent submissions that are shed with 429 + Retry-After
// retry through the hooked clock (no real sleeps) and all succeed.
func TestClientRetriesShedUnderConcurrency(t *testing.T) {
	srv := New(Options{Workers: 2, QueueDepth: 16})
	t.Cleanup(srv.Close)

	// Shed the first POST from each submitter, then pass through. Each
	// submitter posts its own Spec, so a body seen before is a retry: one
	// submitter retrying before the others post is not shed again.
	const submitters = 4
	var shedMu sync.Mutex
	posted := map[string]bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			shedMu.Lock()
			first := !posted[string(body)]
			posted[string(body)] = true
			shedMu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":"shed"}`))
				return
			}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var mu sync.Mutex
	var slept []time.Duration
	client := &Client{Base: ts.URL, Retries: 3,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		}}

	specs := []system.Spec{
		tinySpec("EP", config.CacheBased),
		tinySpec("IS", config.CacheBased),
		tinySpec("EP", config.HybridReal),
		tinySpec("IS", config.HybridReal),
	}
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Run(context.Background(), specs[i], 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v (shed was not retried)", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != submitters {
		t.Fatalf("recorded %d backoff waits, want %d", len(slept), submitters)
	}
	for _, d := range slept {
		if d != time.Second {
			t.Fatalf("backoff wait = %v, want the server's 1s Retry-After", d)
		}
	}
}

// TestClientRetriesHonorRetryAfter: a shed answer is retried once, after a
// wait of at least the server's Retry-After, through the hooked clock — no
// real sleeps.
func TestClientRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"runs":[{"key":"k","status":"done"}]}`))
	}))
	t.Cleanup(ts.Close)
	var slept []time.Duration
	client := &Client{Base: ts.URL, Retries: 2,
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}}

	runs, err := client.Submit(context.Background(), SubmitRequest{}, true, 0)
	if err != nil || len(runs) != 1 || runs[0].Key != "k" {
		t.Fatalf("Submit = %+v, %v; want the one accepted record", runs, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (one shed, one retry)", calls.Load())
	}
	if len(slept) != 1 || slept[0] < 3*time.Second {
		t.Fatalf("retry waits %v, want one wait >= the 3s Retry-After", slept)
	}
}
