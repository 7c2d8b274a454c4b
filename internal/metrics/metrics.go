// Package metrics is a small dependency-free Prometheus-compatible metrics
// library: counters, gauges, histograms (plain and labelled), and an HTTP
// handler rendering the text exposition format (version 0.0.4). It exists so
// the daemon can serve GET /metrics without pulling in client_golang; only
// the subset the daemon needs is implemented.
//
// All instruments are safe for concurrent use (atomics; a mutex only on the
// label-resolution and render paths).
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets mirrors client_golang's default histogram buckets: latencies
// from 5ms to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets plus sum and count.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// metric is one registered family.
type metric struct {
	name, help, typ string
	render          func(w *strings.Builder, name string)
}

// Registry holds registered metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*metric
	byName   map[string]*metric
	subs     []*Registry
}

// Attach renders sub's families after this registry's own — the composition
// hook for a subsystem (e.g. the cluster tier) that owns its instruments but
// should appear on the same /metrics surface. Family names must not collide
// across attached registries; the caller owns that invariant.
func (r *Registry) Attach(sub *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, sub)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) register(name, help, typ string, render func(*strings.Builder, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("metrics: duplicate metric " + name)
	}
	m := &metric{name: name, help: help, typ: typ, render: render}
	r.byName[name] = m
	r.families = append(r.families, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w *strings.Builder, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape time
// — the bridge for pre-existing atomics (queue submit counts, cache stats).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", func(w *strings.Builder, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w *strings.Builder, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, "gauge", func(w *strings.Builder, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// Info registers a gauge that is constantly 1 and carries its information in
// labels — the build_info pattern.
func (r *Registry) Info(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, strconv.Quote(labels[k]))
	}
	body := b.String()
	r.register(name, help, "gauge", func(w *strings.Builder, n string) {
		fmt.Fprintf(w, "%s{%s} 1\n", n, body)
	})
}

// RegisterProcess registers the standard process-level gauges under prefix
// (e.g. "hybridsimd_"): uptime since start, live goroutines, and heap in
// use — the minimum a fleet dashboard needs to tell a hung daemon from an
// idle one. All three read live state at scrape time; ReadMemStats costs a
// brief stop-the-world, which is fine at scrape frequency.
func (r *Registry) RegisterProcess(prefix string, start time.Time) {
	r.GaugeFunc(prefix+"process_uptime_seconds", "Seconds since the process started.",
		func() int64 { return int64(time.Since(start).Seconds()) })
	r.GaugeFunc(prefix+"process_goroutines", "Live goroutines.",
		func() int64 { return int64(runtime.NumGoroutine()) })
	r.GaugeFunc(prefix+"process_heap_inuse_bytes", "Bytes in in-use heap spans.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapInuse)
		})
}

// Histogram registers and returns a histogram. nil buckets = DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", func(w *strings.Builder, n string) {
		renderHistogram(w, n, "", h)
	})
	return h
}

// labelled pairs one label value-set with its instrument.
type labelled[T any] struct {
	key  string // rendered label body, e.g. `outcome="cached"`
	inst T
}

// vec is the shared machinery of CounterVec/HistogramVec: label resolution
// into per-child instruments, rendered in first-use order.
type vec[T any] struct {
	mu     sync.Mutex
	labels []string
	kids   map[string]*labelled[T]
	order  []*labelled[T]
	mk     func() T
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: got %d label values, want %d", len(values), len(v.labels)))
	}
	// The key is rendered into a stack buffer and looked up without a
	// string copy; only a first use allocates its key.
	var buf [128]byte
	b := buf[:0]
	for i, l := range v.labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, values[i])
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	kid, ok := v.kids[string(b)]
	if !ok {
		kid = &labelled[T]{key: string(b), inst: v.mk()}
		v.kids[kid.key] = kid
		v.order = append(v.order, kid)
	}
	return kid.inst
}

func (v *vec[T]) snapshot() []*labelled[T] {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*labelled[T], len(v.order))
	copy(out, v.order)
	return out
}

// CounterVec is a counter family with labels.
type CounterVec struct{ vec[*Counter] }

// With returns the child counter for the label values (created on first use).
func (cv *CounterVec) With(values ...string) *Counter { return cv.with(values...) }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{vec[*Counter]{
		labels: labels,
		kids:   map[string]*labelled[*Counter]{},
		mk:     func() *Counter { return &Counter{} },
	}}
	r.register(name, help, "counter", func(w *strings.Builder, n string) {
		for _, kid := range cv.snapshot() {
			fmt.Fprintf(w, "%s{%s} %d\n", n, kid.key, kid.inst.Value())
		}
	})
	return cv
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ vec[*Gauge] }

// With returns the child gauge for the label values (created on first use).
func (gv *GaugeVec) With(values ...string) *Gauge { return gv.with(values...) }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{vec[*Gauge]{
		labels: labels,
		kids:   map[string]*labelled[*Gauge]{},
		mk:     func() *Gauge { return &Gauge{} },
	}}
	r.register(name, help, "gauge", func(w *strings.Builder, n string) {
		for _, kid := range gv.snapshot() {
			fmt.Fprintf(w, "%s{%s} %d\n", n, kid.key, kid.inst.Value())
		}
	})
	return gv
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	vec[*Histogram]
}

// With returns the child histogram for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.with(values...) }

// HistogramVec registers a labelled histogram family. nil buckets =
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	hv := &HistogramVec{vec[*Histogram]{
		labels: labels,
		kids:   map[string]*labelled[*Histogram]{},
		mk:     func() *Histogram { return newHistogram(buckets) },
	}}
	r.register(name, help, "histogram", func(w *strings.Builder, n string) {
		for _, kid := range hv.snapshot() {
			renderHistogram(w, n, kid.key, kid.inst)
		}
	})
	return hv
}

// renderHistogram writes the _bucket/_sum/_count triplet for one child.
// labels is the extra label body ("" for a plain histogram).
func renderHistogram(w *strings.Builder, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	sum := math.Float64frombits(h.sum.Load())
	body := labels
	if body != "" {
		body = "{" + body + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, body, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, body, h.count.Load())
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Render writes every family in the Prometheus text exposition format.
func (r *Registry) Render() string {
	r.mu.Lock()
	fams := make([]*metric, len(r.families))
	copy(fams, r.families)
	subs := make([]*Registry, len(r.subs))
	copy(subs, r.subs)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		m.render(&b, m.name)
	}
	for _, sub := range subs {
		b.WriteString(sub.Render())
	}
	return b.String()
}

// Handler returns the /metrics HTTP handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}
