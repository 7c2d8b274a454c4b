package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Reg is a build-time registry of counter names for one component class.
// Every counter a component will ever increment is registered once, at
// package init, yielding an integer Handle; the per-instance Counters is then
// a flat slice indexed by handle, so the hot path is a single bounds-checked
// array increment — no hashing, no string keys, no map buckets.
type Reg struct {
	names []string
	index map[string]Handle
}

// Handle identifies one registered counter within its Reg.
type Handle int32

// NewReg returns an empty registry.
func NewReg() *Reg {
	return &Reg{index: make(map[string]Handle)}
}

// Handle registers name (idempotently) and returns its handle. Call at
// package init; handles are stable for the life of the registry.
func (r *Reg) Handle(name string) Handle {
	if h, ok := r.index[name]; ok {
		return h
	}
	h := Handle(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = h
	return h
}

// Counters is an interned counter set: one slot per registered name. It
// renders only touched (nonzero) counters, sorted by name, one per line.
type Counters struct {
	name string
	reg  *Reg
	v    []uint64
}

// NewCounters returns a zeroed counter set over the registry.
func (r *Reg) NewCounters(name string) *Counters {
	return &Counters{name: name, reg: r, v: make([]uint64, len(r.names))}
}

// Inc increments the counter by one.
func (c *Counters) Inc(h Handle) { c.v[h]++ }

// Add increments the counter by n.
func (c *Counters) Add(h Handle, n uint64) { c.v[h] += n }

// Val returns the counter's current value.
func (c *Counters) Val(h Handle) uint64 { return c.v[h] }

// Get returns the value of the counter named name (zero when unregistered or
// never touched). By-name lookup is the cold path for reports and tests; hot
// code holds Handles.
func (c *Counters) Get(name string) uint64 {
	h, ok := c.reg.index[name]
	if !ok {
		return 0
	}
	return c.v[h]
}

// Keys returns the touched (nonzero) counter names in sorted order.
func (c *Counters) Keys() []string {
	keys := make([]string, 0, len(c.v))
	for i, v := range c.v {
		if v != 0 {
			keys = append(keys, c.reg.names[i])
		}
	}
	sort.Strings(keys)
	return keys
}

// AllNames returns every registered name in registration order, touched or
// not — the full schema of the set. Telemetry uses this to fix a time-series
// layout up front, before any counter has moved.
func (c *Counters) AllNames() []string {
	out := make([]string, len(c.reg.names))
	copy(out, c.reg.names)
	return out
}

// String renders the set under a "name:" header, one touched counter per
// line as "  %-32s %12d", sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", c.name)
	for _, k := range c.Keys() {
		fmt.Fprintf(&b, "  %-32s %12d\n", k, c.Get(k))
	}
	return b.String()
}
