// Package rescache is a content-addressed result store for simulation runs.
//
// Every run is a pure function of its Spec (single-threaded engine, fixed
// seed — DESIGN.md §8), so Results can be memoized forever under the Spec's
// canonical Hash. The cache is two-tiered: a bounded in-memory LRU for the
// hot set, and an optional on-disk JSON tier (one file per hash) that
// survives restarts. The cache does not deduplicate concurrent runs of one
// Spec: its callers do that before they get here (the daemon's in-flight
// registry, DESIGN.md §12).
package rescache

import (
	"container/list"
	"context"
	"encoding/json"
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

// Stats counts cache traffic. Hits is MemHits + DiskHits: every lookup
// answered without an Execute.
type Stats struct {
	Entries   int    `json:"entries"`  // memory-tier population
	Capacity  int    `json:"capacity"` // memory-tier bound
	Hits      uint64 `json:"hits"`
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"` // requests that executed
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
	ll      *list.List               // MRU at front; values are *entryNode
	entries map[string]*list.Element // hash -> element
	stats   Stats
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
	s.Hits = s.MemHits + s.DiskHits
	return s
}

// Get reports the cached Results for spec, consulting memory then disk.
func (c *Cache) Get(spec system.Spec) (system.Results, bool) {
	if e, ok := c.get(spec.Hash()); ok {
		return e.Res, true
	}
	return system.Results{}, false
}

// EntryKey returns the full cached entry — Spec and Results — for a hash,
// consulting memory then disk. Disk hits are promoted into memory.
func (c *Cache) EntryKey(key string) (Entry, bool) {
	if e, ok := c.get(key); ok {
		return *e, true
	}
	return Entry{}, false
}

// get is the lookup behind Get, EntryKey and GetOrRun. The entry is shared
// with the memory tier, which never mutates a stored entry, so callers
// copy out what they need and never write through it.
func (c *Cache) get(key string) (*Entry, bool) {
	if e, ok := c.memGet(key); ok {
		return e, true
	}
	e, ok := c.diskGet(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.storeLocked(key, e)
	c.stats.DiskHits++
	c.mu.Unlock()
	return e, true
}

// memGet finds key in the memory tier and marks it most-recent.
func (c *Cache) memGet(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.MemHits++
	return el.Value.(*entryNode).e, true
}

// GetOrRun returns the cached Results for spec, or executes run and stores
// its Results in both tiers. hit reports whether the answer came from
// memory or disk. Failed runs are never cached, so a later request retries.
// Concurrent callers with one Spec each execute: deduplicating them is the
// caller's job.
func (c *Cache) GetOrRun(ctx context.Context, spec system.Spec, run func(context.Context) (system.Results, error)) (res system.Results, hit bool, err error) {
	key := spec.Hash()
	if e, ok := c.get(key); ok {
		return e.Res, true, nil
	}
	return c.runAndStore(ctx, spec, key, run)
}

// RunMissed is GetOrRun for a key (spec.Hash()) the caller has already
// missed in both tiers (EntryKey). Its re-check before running reads
// memory only, where a run that ended since then stored its result first;
// the disk is not read a second time.
func (c *Cache) RunMissed(ctx context.Context, spec system.Spec, key string, run func(context.Context) (system.Results, error)) (res system.Results, hit bool, err error) {
	if e, ok := c.memGet(key); ok {
		return e.Res, true, nil
	}
	return c.runAndStore(ctx, spec, key, run)
}

// runAndStore is the miss half of GetOrRun and RunMissed.
func (c *Cache) runAndStore(ctx context.Context, spec system.Spec, key string, run func(context.Context) (system.Results, error)) (res system.Results, hit bool, err error) {
	res, err = run(ctx)
	if err != nil {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		return res, false, err
	}
	c.store(key, &Entry{Spec: spec, Res: res}, &c.stats.Misses)
	return res, false, nil
}

// Put fills both tiers with an already-executed result, as GetOrRun does
// after a run. It serves callers that run a Spec themselves (a run
// recording a timeline) but still want the result memoized for everyone
// else. The fill counts as a miss: the run happened.
func (c *Cache) Put(spec system.Spec, res system.Results) {
	c.store(spec.Hash(), &Entry{Spec: spec, Res: res}, &c.stats.Misses)
}

// FillPeer adopts a result computed elsewhere in the fleet — the answer of
// a run forwarded to its owner — into both tiers. Unlike Put it counts
// neither a hit nor a miss (no local lookup or Execute happened) but a
// PeerFill, so per-node hit rates stay honest in cluster mode.
func (c *Cache) FillPeer(spec system.Spec, res system.Results) {
	c.store(spec.Hash(), &Entry{Spec: spec, Res: res}, &c.stats.PeerFills)
}

// store counts one fill on the counter n and writes e to both tiers. Disk
// persistence is best-effort: a read-only disk must not fail the run that
// produced a perfectly good result, so a write error is logged and dropped.
func (c *Cache) store(key string, e *Entry, n *uint64) {
	c.mu.Lock()
	*n++
	c.storeLocked(key, e)
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := c.diskPut(key, e); err != nil {
		c.logWarn("rescache: disk write failed", "key", key, "err", err)
	}
}

// entryNode carries the key alongside the Entry so eviction can unmap it.
type entryNode struct {
	key string
	e   *Entry
}

// storeLocked inserts (or refreshes) key as most-recent and evicts the
// least-recent entry past capacity.
func (c *Cache) storeLocked(key string, e *Entry) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entryNode).e = e
		return
	}
	c.entries[key] = c.ll.PushFront(&entryNode{key: key, e: e})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*entryNode).key)
		c.stats.Evictions++
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
func (c *Cache) diskGet(key string) (*Entry, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.diskError(key, err)
		}
		return nil, false
	}
	e := new(Entry)
	if err := json.Unmarshal(b, e); err != nil {
		c.diskError(key, fmt.Errorf("corrupt entry: %w", err))
		return nil, false
	}
	if got := e.Spec.Hash(); got != key {
		c.diskError(key, fmt.Errorf("entry hashes to %s, not its file name", got))
		return nil, false
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
func (c *Cache) diskPut(key string, e *Entry) error {
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
