// Package stats provides the counters and small aggregations used by every
// hardware model to report what happened during a simulation. All output is
// deterministically ordered so runs diff cleanly.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a named group of monotonically increasing counters. The zero value
// is not usable; construct with NewSet.
type Set struct {
	name string
	m    map[string]uint64
}

// NewSet returns an empty counter set with the given name.
func NewSet(name string) *Set {
	return &Set{name: name, m: make(map[string]uint64)}
}

// Add increments counter key by n.
func (s *Set) Add(key string, n uint64) { s.m[key] += n }

// Inc increments counter key by one.
func (s *Set) Inc(key string) { s.m[key]++ }

// Get returns the current value of key (zero if never touched).
func (s *Set) Get(key string) uint64 { return s.m[key] }

// Keys returns the touched counter names in sorted order.
func (s *Set) Keys() []string {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the set one counter per line, sorted by key.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", s.name)
	for _, k := range s.Keys() {
		fmt.Fprintf(&b, "  %-32s %12d\n", k, s.m[k])
	}
	return b.String()
}

// Ratio is a convenience for hit/miss style ratios: it returns num/(num+den),
// and 0 when both are zero.
func Ratio(num, den uint64) float64 {
	if num+den == 0 {
		return 0
	}
	return float64(num) / float64(num+den)
}

// Dist is a streaming distribution summary (count, sum, min, max).
type Dist struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// Observe folds one sample into the distribution.
func (d *Dist) Observe(v uint64) {
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean returns the sample mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Merge folds other into d.
func (d *Dist) Merge(other Dist) {
	if other.Count == 0 {
		return
	}
	if d.Count == 0 {
		*d = other
		return
	}
	if other.Min < d.Min {
		d.Min = other.Min
	}
	if other.Max > d.Max {
		d.Max = other.Max
	}
	d.Count += other.Count
	d.Sum += other.Sum
}

func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%d max=%d", d.Count, d.Mean(), d.Min, d.Max)
}
