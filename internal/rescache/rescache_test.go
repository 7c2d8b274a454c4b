package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// spec returns a valid Spec distinguished by its filter size, so tests can
// mint arbitrarily many distinct cache keys without running anything.
func spec(filter int) system.Spec {
	return system.Spec{
		System:    config.HybridReal,
		Benchmark: "EP",
		Scale:     workloads.Tiny,
		Overrides: config.Overrides{Cores: 4, FilterEntries: filter},
	}
}

// fakeRun builds a run function that counts its calls and returns synthetic
// Results tagged with the filter size, so tests never pay for a simulation.
func fakeRun(calls *int, cycles uint64) func(context.Context) (system.Results, error) {
	return func(context.Context) (system.Results, error) {
		*calls++
		return system.Results{Benchmark: "EP", System: config.HybridReal, Cycles: cycles}, nil
	}
}

func mustNew(t *testing.T, capacity int, dir string) *Cache {
	t.Helper()
	c, err := New(capacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetOrRunExecutesOnceThenHits(t *testing.T) {
	c := mustNew(t, 8, "")
	calls := 0
	res, hit, err := c.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 42))
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v, want miss", hit, err)
	}
	if res.Cycles != 42 {
		t.Fatalf("Cycles = %d, want 42", res.Cycles)
	}
	res2, hit, err := c.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 42))
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v, want hit", hit, err)
	}
	if res2 != res {
		t.Fatalf("cached Results diverged: %+v vs %+v", res2, res)
	}
	if calls != 1 {
		t.Fatalf("run executed %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 mem hit", st)
	}
}

func TestSingleflightDeduplicatesConcurrentCallers(t *testing.T) {
	c := mustNew(t, 8, "")
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.GetOrRun(context.Background(), spec(8), func(context.Context) (system.Results, error) {
			calls++
			close(started)
			<-release
			return system.Results{Cycles: 7}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-started // the flight is registered: every caller below must join it

	const followers = 8
	var wg sync.WaitGroup
	results := make([]system.Results, followers)
	hits := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, hit, err := c.GetOrRun(context.Background(), spec(8), func(context.Context) (system.Results, error) {
				t.Error("follower executed the run")
				return system.Results{}, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], hits[i] = res, hit
		}(i)
	}
	// Followers block on the flight; releasing the leader resolves them all.
	waitForDedup(t, c, followers)
	close(release)
	wg.Wait()
	<-leaderDone

	for i := range results {
		if !hits[i] || results[i].Cycles != 7 {
			t.Fatalf("follower %d: hit=%v res=%+v, want shared hit", i, hits[i], results[i])
		}
	}
	if calls != 1 {
		t.Fatalf("run executed %d times for %d callers, want 1", calls, followers+1)
	}
	if st := c.Stats(); st.Dedup != followers {
		t.Fatalf("Dedup = %d, want %d", st.Dedup, followers)
	}
}

// waitForDedup waits until all followers have registered on the flight, so
// the release cannot race ahead of a slow goroutine start.
func waitForDedup(t *testing.T, c *Cache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Dedup != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the flight", c.Stats().Dedup, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFollowerContextCancellation(t *testing.T) {
	c := mustNew(t, 8, "")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.GetOrRun(context.Background(), spec(8), func(context.Context) (system.Results, error) {
		close(started)
		<-release
		return system.Results{}, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrRun(ctx, spec(8), fakeRun(new(int), 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, 2, "")
	calls := 0
	for _, f := range []int{8, 16, 32} {
		if _, _, err := c.GetOrRun(context.Background(), spec(f), fakeRun(&calls, uint64(f))); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	// spec(8) was least-recent and must have been evicted; 16 and 32 stay.
	if _, ok := c.Get(spec(8)); ok {
		t.Fatal("evicted entry still present")
	}
	for _, f := range []int{16, 32} {
		if res, ok := c.Get(spec(f)); !ok || res.Cycles != uint64(f) {
			t.Fatalf("spec(%d): ok=%v res=%+v, want retained", f, ok, res)
		}
	}
	// Re-filling the evicted key executes again.
	if _, hit, _ := c.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 8)); hit {
		t.Fatal("evicted key reported a hit")
	}
	if calls != 4 {
		t.Fatalf("run executed %d times, want 4", calls)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1 := mustNew(t, 8, dir)
	calls := 0
	want, _, err := c1.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 99))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the result from disk
	// without executing, and the Entry round-trips losslessly.
	c2 := mustNew(t, 8, dir)
	res, hit, err := c2.GetOrRun(context.Background(), spec(8), func(context.Context) (system.Results, error) {
		t.Error("disk hit still executed the run")
		return system.Results{}, nil
	})
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v, want disk hit", hit, err)
	}
	if res != want {
		t.Fatalf("disk round-trip changed Results:\n got %+v\nwant %+v", res, want)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 misses", st)
	}
	// The second lookup is a memory hit — the disk entry was promoted.
	if _, hit, _ := c2.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 0)); !hit {
		t.Fatal("promoted entry missed")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("MemHits = %d, want 1", st.MemHits)
	}
}

func TestCorruptDiskEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, 8, dir)
	key := spec(8).Hash()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if _, hit, err := c.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 1)); hit || err != nil {
		t.Fatalf("hit=%v err=%v, want clean miss over corrupt file", hit, err)
	}
	if calls != 1 {
		t.Fatalf("run executed %d times, want 1", calls)
	}
}

func TestMismatchedDiskEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, 8, dir)
	// A valid entry filed under the wrong hash must be ignored, not served.
	if _, _, err := c.GetOrRun(context.Background(), spec(8), fakeRun(new(int), 5)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, spec(8).Hash()+".json")
	dst := filepath.Join(dir, spec(16).Hash()+".json")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustNew(t, 8, dir)
	calls := 0
	if _, hit, _ := c2.GetOrRun(context.Background(), spec(16), fakeRun(&calls, 6)); hit {
		t.Fatal("mis-filed disk entry served as a hit")
	}
	if calls != 1 {
		t.Fatalf("run executed %d times, want 1", calls)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := mustNew(t, 8, "")
	calls := 0
	boom := errors.New("boom")
	fail := func(context.Context) (system.Results, error) {
		calls++
		return system.Results{}, boom
	}
	if _, _, err := c.GetOrRun(context.Background(), spec(8), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrRun(context.Background(), spec(8), fail); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("failed run executed %d times, want 2 (no negative caching)", calls)
	}
	if _, ok := c.Get(spec(8)); ok {
		t.Fatal("failed run was cached")
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(0, ""); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("New(0) err = %v, want capacity error", err)
	}
}

// TestFollowerSurvivesLeaderCancellation: a flight that dies because its
// *leader's* caller disconnected must not fail a follower whose own
// context is still live — the follower retries and becomes the new leader.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	c := mustNew(t, 8, "")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	followerJoined := make(chan struct{})
	go func() {
		c.GetOrRun(leaderCtx, spec(8), func(ctx context.Context) (system.Results, error) {
			close(started)
			<-followerJoined
			cancelLeader()
			<-ctx.Done()
			return system.Results{}, fmt.Errorf("run canceled: %w", ctx.Err())
		})
	}()
	<-started

	calls := 0
	type outcome struct {
		res system.Results
		hit bool
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, hit, err := c.GetOrRun(context.Background(), spec(8), fakeRun(&calls, 11))
		got <- outcome{res, hit, err}
	}()
	waitForDedup(t, c, 1)
	close(followerJoined)

	o := <-got
	if o.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", o.err)
	}
	if o.hit || o.res.Cycles != 11 || calls != 1 {
		t.Fatalf("follower takeover: hit=%v res=%+v calls=%d, want a fresh run", o.hit, o.res, calls)
	}
}

// v1Hash reproduces the retired hybridsim-spec-v1 encoding, which resolved
// every defaultable field instead of listing non-default knobs.
func v1Hash(s system.Spec) string {
	def := config.ForSystem(s.System)
	cores, filter := def.Cores, def.FilterEntries
	if s.Overrides.Cores > 0 {
		cores = s.Overrides.Cores
	}
	if s.Overrides.FilterEntries > 0 {
		filter = s.Overrides.FilterEntries
	}
	seed := s.Seed
	if seed == 0 {
		seed = system.DefaultSeed
	}
	enc := fmt.Sprintf(
		"hybridsim-spec-v1\nsystem=%s\nbenchmark=%s\nscale=%s\ncores=%d\nseed=%x\nfilter=%d\nmaxevents=%d\n",
		s.System, s.Benchmark, s.Scale, cores, seed, filter, s.MaxEvents)
	sum := sha256.Sum256([]byte(enc))
	return hex.EncodeToString(sum[:])
}

// TestV1DiskEntriesMissUnderV2 pins DESIGN.md §8's versioning contract for
// the v1 -> v2 hash migration: an entry a v1 daemon persisted sits under a
// name no v2 Spec can hash to, so it reads as a miss (a re-execute), never
// as a wrong or stale answer.
func TestV1DiskEntriesMissUnderV2(t *testing.T) {
	dir := t.TempDir()
	s := spec(8)
	if s.Hash() == v1Hash(s) {
		t.Fatal("v2 hash equals the v1 hash; the encoding was not versioned")
	}
	// Simulate the upgrade: a v1-era file holding perfectly good Results
	// under the old address.
	e := Entry{Spec: s, Res: system.Results{Benchmark: "EP", Cycles: 999}}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, v1Hash(s)+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, 8, dir)
	if _, ok := c.Get(s); ok {
		t.Fatal("a v1 disk entry was served under the v2 address")
	}
	calls := 0
	if _, hit, err := c.GetOrRun(context.Background(), s, fakeRun(&calls, 7)); err != nil || hit {
		t.Fatalf("hit=%v err=%v, want a clean miss and re-execute", hit, err)
	}
	if calls != 1 {
		t.Fatalf("run executed %d times, want 1", calls)
	}
	// The re-executed result is re-persisted under the v2 address, so the
	// next process hits.
	c2 := mustNew(t, 8, dir)
	if _, ok := c2.Get(s); !ok {
		t.Fatal("re-executed result not persisted under the v2 address")
	}
}
