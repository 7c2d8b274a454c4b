// Package stats provides the counter container the hardware models report
// through — a build-time name registry (Reg) whose per-instance Counters are
// flat slices indexed by Handle — plus Dist, a streaming distribution
// summary. All output is deterministically ordered so runs diff
// cleanly.
package stats

import "fmt"

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

func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%d max=%d", d.Count, d.Mean(), d.Min, d.Max)
}
