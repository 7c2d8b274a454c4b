// Package rescache is a content-addressed result store for simulation runs.
//
// Every run is a pure function of its Spec (single-threaded engine, fixed
// seed — DESIGN.md §8), so Results can be memoized forever under the Spec's
// canonical Hash. The cache is two-tiered: a bounded in-memory LRU for the
// hot set, and an optional on-disk JSON tier (one file per hash) that
// survives restarts. Concurrent requests for the same Spec are deduplicated
// with a singleflight, so N callers cost one Execute.
package rescache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/system"
)

// Entry is the unit the cache stores and round-trips to disk: the Spec that
// produced the Results, so a disk file is self-describing and verifiable
// (the file name must equal Spec.Hash()).
type Entry struct {
	Spec system.Spec    `json:"spec"`
	Res  system.Results `json:"results"`
}

// Stats counts cache traffic. Hits covers both tiers plus singleflight
// followers — every request that did not pay for an Execute of its own.
type Stats struct {
	Entries   int    `json:"entries"`  // memory-tier population
	Capacity  int    `json:"capacity"` // memory-tier bound
	Hits      uint64 `json:"hits"`
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Dedup     uint64 `json:"deduplicated"` // callers that joined an in-flight run
	Misses    uint64 `json:"misses"`       // requests that executed
	Evictions uint64 `json:"evictions"`

	// DiskErrors counts disk-tier entries that were present but unusable —
	// corrupt, truncated, or mis-addressed files skipped at lookup.
	DiskErrors uint64 `json:"disk_errors"`

	// PeerFills counts results adopted from fleet peers (a run forwarded to
	// its owner); they are neither local hits nor local misses.
	PeerFills uint64 `json:"peer_fills"`
}

// Cache is safe for concurrent use.
type Cache struct {
	cap int
	dir string // "" disables the disk tier
	log *slog.Logger

	mu      sync.Mutex
	ll      *list.List               // MRU at front; values are *Entry
	entries map[string]*list.Element // hash -> element
	flights map[string]*flight
	stats   Stats
}

// flight is one in-progress fill; followers block on done and share the
// leader's outcome.
type flight struct {
	done chan struct{}
	res  system.Results
	err  error
}

// New builds a cache holding up to capacity entries in memory. A non-empty
// dir enables the disk tier (created if missing); disk entries are never
// evicted, so the disk is the larger, slower tier.
func New(capacity int, dir string) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("rescache: capacity %d < 1", capacity)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: %w", err)
		}
	}
	return &Cache{
		cap:     capacity,
		dir:     dir,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}, nil
}

// SetLogger routes disk-tier diagnostics (corrupt entries, write failures)
// to l; nil keeps them silent. Call before the cache is shared.
func (c *Cache) SetLogger(l *slog.Logger) { c.log = l }

// logWarn emits one diagnostic if a logger is configured.
func (c *Cache) logWarn(msg string, args ...any) {
	if c.log != nil {
		c.log.Warn(msg, args...)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.cap
	return s
}

// Get reports the cached Results for spec, consulting memory then disk.
func (c *Cache) Get(spec system.Spec) (system.Results, bool) {
	return c.GetKey(spec.Hash())
}

// GetKey is Get addressed by a canonical hash directly — the form a service
// poll URL carries.
func (c *Cache) GetKey(key string) (system.Results, bool) {
	e, ok := c.EntryKey(key)
	return e.Res, ok
}

// EntryKey returns the full cached entry — Spec and Results — for a hash,
// consulting memory then disk. Disk hits are promoted into memory.
func (c *Cache) EntryKey(key string) (Entry, bool) {
	c.mu.Lock()
	if e, ok := c.lookupLocked(key); ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if e, ok := c.diskGet(key); ok {
		c.mu.Lock()
		c.storeLocked(key, e)
		c.stats.Hits++
		c.stats.DiskHits++
		c.mu.Unlock()
		return e, true
	}
	return Entry{}, false
}

// GetOrRun returns the cached Results for spec, executing run exactly once
// per key on a miss no matter how many callers race. hit reports whether
// this caller avoided an Execute of its own (memory, disk, or another
// caller's in-flight run). Failed runs are never cached: the error is
// shared with the followers of that flight, then forgotten so a later
// request retries. A flight that died of its *leader's* cancellation is
// not inherited: a follower whose own context is still live retries (and
// becomes the new leader), so one client's disconnect cannot fail an
// unrelated request that happened to share the Spec.
func (c *Cache) GetOrRun(ctx context.Context, spec system.Spec, run func(context.Context) (system.Results, error)) (res system.Results, hit bool, err error) {
	key := spec.Hash()
	for {
		c.mu.Lock()
		if e, ok := c.lookupLocked(key); ok {
			c.stats.Hits++
			c.stats.MemHits++
			c.mu.Unlock()
			return e.Res, true, nil
		}
		f, inFlight := c.flights[key]
		if !inFlight {
			break
		}
		c.stats.Hits++
		c.stats.Dedup++
		c.mu.Unlock()
		select {
		case <-f.done:
			if isContextErr(f.err) && ctx.Err() == nil {
				continue // the leader was canceled, this caller was not
			}
			return f.res, true, f.err
		case <-ctx.Done():
			return system.Results{}, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// This caller is the flight leader: check the disk tier (I/O stays
	// outside the lock, inside the flight so it happens once), then run.
	if e, ok := c.diskGet(key); ok {
		f.res = e.Res
		c.mu.Lock()
		c.storeLocked(key, e)
		c.stats.Hits++
		c.stats.DiskHits++
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.res, true, nil
	}

	f.res, f.err = run(ctx)
	c.mu.Lock()
	c.stats.Misses++
	if f.err == nil {
		c.storeLocked(key, Entry{Spec: spec, Res: f.res})
	}
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	if f.err == nil && c.dir != "" {
		// Disk persistence is best-effort; a read-only disk must not fail
		// the run that produced a perfectly good result.
		c.diskPutLogged(key, Entry{Spec: spec, Res: f.res})
	}
	return f.res, false, f.err
}

// Put fills the cache with an already-executed result, both tiers. It exists
// for callers that run a Spec outside GetOrRun (a telemetry re-run of a
// cached result, which must execute again to record its timeline) but
// still want the result memoized for everyone else. The fill counts as a
// miss: the run happened.
func (c *Cache) Put(spec system.Spec, res system.Results) {
	key := spec.Hash()
	e := Entry{Spec: spec, Res: res}
	c.mu.Lock()
	c.stats.Misses++
	c.storeLocked(key, e)
	c.mu.Unlock()
	if c.dir != "" {
		c.diskPutLogged(key, e) // best-effort, like GetOrRun
	}
}

// FillPeer adopts a result computed elsewhere in the fleet — the answer of
// a run forwarded to its owner — into both tiers. Unlike Put it counts
// neither a hit nor a miss (no local lookup or Execute happened) but a
// PeerFill, so per-node hit rates stay honest in cluster mode.
func (c *Cache) FillPeer(spec system.Spec, res system.Results) {
	key := spec.Hash()
	e := Entry{Spec: spec, Res: res}
	c.mu.Lock()
	c.stats.PeerFills++
	c.storeLocked(key, e)
	c.mu.Unlock()
	if c.dir != "" {
		c.diskPutLogged(key, e) // best-effort, like GetOrRun
	}
}

// Contains reports whether key is resident in either tier without touching
// the hit counters or promoting anything.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if ok || c.dir == "" {
		return ok
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// isContextErr reports whether err is (or wraps) a cancellation.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lookupLocked finds key in the memory tier and marks it most-recent.
func (c *Cache) lookupLocked(key string) (Entry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*entryNode).e, true
}

// entryNode carries the key alongside the Entry so eviction can unmap it.
type entryNode struct {
	key string
	e   *Entry
}

// storeLocked inserts (or refreshes) key as most-recent and evicts the
// least-recent entry past capacity.
func (c *Cache) storeLocked(key string, e Entry) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entryNode).e = &e
		return
	}
	c.entries[key] = c.ll.PushFront(&entryNode{key: key, e: &e})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*entryNode).key)
		c.stats.Evictions++
	}
}

// diskPutLogged is diskPut for callers that treat persistence as
// best-effort: the error is logged and dropped.
func (c *Cache) diskPutLogged(key string, e Entry) {
	if err := c.diskPut(key, e); err != nil {
		c.logWarn("rescache: disk write failed", "key", key, "err", err)
	}
}

// path maps a hash to its disk file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// diskGet loads and verifies one disk entry. Corrupt, foreign, or stale
// files (truncated JSON, a half-written entry, a Spec that no longer hashes
// to its file name) are skipped — logged and counted in DiskErrors, never
// surfaced as lookup failures — so one bad file costs a re-execute, not an
// outage. A missing file is an ordinary miss.
func (c *Cache) diskGet(key string) (Entry, bool) {
	if c.dir == "" {
		return Entry{}, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.diskError(key, err)
		}
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		c.diskError(key, fmt.Errorf("corrupt entry: %w", err))
		return Entry{}, false
	}
	if got := e.Spec.Hash(); got != key {
		c.diskError(key, fmt.Errorf("entry hashes to %s, not its file name", got))
		return Entry{}, false
	}
	return e, true
}

// diskError records one unusable disk entry.
func (c *Cache) diskError(key string, err error) {
	c.mu.Lock()
	c.stats.DiskErrors++
	c.mu.Unlock()
	c.logWarn("rescache: skipping unusable disk entry", "key", key, "err", err)
}

// diskPut writes one entry atomically (temp file + rename), so a crashed or
// concurrent writer can never leave a torn file a reader would half-parse.
func (c *Cache) diskPut(key string, e Entry) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	return os.Rename(tmp.Name(), c.path(key))
}
