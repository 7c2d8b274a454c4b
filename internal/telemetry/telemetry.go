// Package telemetry is the in-sim observability layer: an opt-in Recorder
// that a system.Machine carries through one run, sampling the interned
// counter sets every N cycles into a compact time series, plus a bounded
// ring-buffer event trace (trace.go) with JSONL and Chrome trace_event
// exporters (export.go).
//
// The disabled-path contract (DESIGN.md §10): a machine with no Recorder
// attached pays exactly one nil pointer check per instrumented site, emits
// no events, schedules nothing, and allocates nothing — golden stats stay
// byte-identical and the hot-path allocation guard holds. All the cost of
// observation is borne by runs that asked for it.
package telemetry

import (
	"repro/internal/sim"
)

// Probe is one sampled series: a name and a monotonic counter reader. The
// reader is called once per sampling epoch — the cold path — so closures
// over by-name counter lookups are fine here.
type Probe struct {
	Name string
	Fn   func() uint64
}

// Epoch is one sampling interval's worth of counter movement: the cycle the
// sample was taken at and the per-probe deltas since the previous sample
// (parallel to TimeSeries.Names).
type Epoch struct {
	Cycle  uint64   `json:"cycle"`
	Deltas []uint64 `json:"deltas"`
}

// TimeSeries is the per-run sampling product, shaped for the wire
// (GET /v1/runs/{key}/timeline) and the report sinks.
type TimeSeries struct {
	// Interval is the sampling period in simulated cycles.
	Interval uint64 `json:"interval"`
	// Names are the sampled series, fixed at attach time; every epoch's
	// Deltas slice is parallel to this.
	Names []string `json:"names"`
	// Epochs holds one entry per sampling period in which at least one
	// counter moved (all-quiet periods are elided — the series is a delta
	// encoding, so gaps reconstruct as zeros).
	Epochs []Epoch `json:"epochs"`
	// FinalCycle is the cycle the run drained at; the last epoch may cover
	// a partial interval ending here.
	FinalCycle uint64 `json:"final_cycle"`
}

// Recorder carries one run's telemetry: the sampling schedule and series,
// and optionally a Trace. A Recorder is single-run and single-goroutine,
// like the engine it binds to; build a fresh one per Execute.
type Recorder struct {
	interval sim.Time
	trace    *Trace

	eng    *sim.Engine
	probes []Probe

	prev     []uint64
	lastTick sim.Time
	series   TimeSeries
	started  bool
}

// NewRecorder builds a recorder. interval > 0 enables counter sampling
// every interval cycles; traceEvents > 0 enables the event trace with a
// ring buffer of that many events. Both may be combined; both zero yields
// an inert recorder.
func NewRecorder(interval uint64, traceEvents int) *Recorder {
	r := &Recorder{interval: sim.Time(interval)}
	if traceEvents > 0 {
		r.trace = newTrace(traceEvents)
	}
	return r
}

// Tracer returns the event trace, or nil when tracing is disabled.
func (r *Recorder) Tracer() *Trace { return r.trace }

// Interval returns the sampling period in cycles (0 = sampling disabled).
func (r *Recorder) Interval() uint64 { return uint64(r.interval) }

// Bind attaches the recorder to the engine whose clock stamps every sample
// and event. The machine calls this from Attach; it must happen before
// Start.
func (r *Recorder) Bind(eng *sim.Engine) {
	r.eng = eng
	if r.trace != nil {
		r.trace.eng = eng
	}
}

// AddProbe registers one sampled series. Call before Start.
func (r *Recorder) AddProbe(name string, fn func() uint64) {
	r.probes = append(r.probes, Probe{Name: name, Fn: fn})
}

// Start begins sampling on the bound engine. The sampler is a pooled
// self-rescheduling continuation: it fires every interval, reads every
// probe, and stops once it finds the engine otherwise drained — reading
// counters cannot perturb simulated behavior, so a sampled run's Results
// are identical to an unsampled one (pinned by TestRecorderResultsIdentical).
func (r *Recorder) Start() {
	if r.started || r.interval <= 0 || r.eng == nil || len(r.probes) == 0 {
		return
	}
	r.started = true
	r.series.Interval = uint64(r.interval)
	r.series.Names = make([]string, len(r.probes))
	for i, p := range r.probes {
		r.series.Names[i] = p.Name
	}
	r.prev = make([]uint64, len(r.probes))
	for i, p := range r.probes {
		r.prev[i] = p.Fn()
	}
	r.lastTick = r.eng.Now()
	r.eng.ScheduleCont(r.interval, samplerCont{r})
}

// samplerCont adapts the recorder to sim.Cont without an allocation per
// firing (the pointer-shaped struct boxes allocation-free).
type samplerCont struct{ r *Recorder }

func (s samplerCont) Fire() { s.r.tick() }

// tick takes one sample and reschedules. When the sampler is the only
// pending work left (the simulation proper has drained), it stops instead,
// so a sampled run still terminates — the headline cycle count comes from
// the cluster's finish time, not the engine clock, and is unaffected by the
// sampler's trailing events.
func (r *Recorder) tick() {
	r.sample()
	if r.eng.Pending() > 0 {
		r.eng.ScheduleCont(r.interval, samplerCont{r})
	}
}

// sample appends one epoch covering [lastTick, now] if any probe moved.
func (r *Recorder) sample() {
	now := r.eng.Now()
	if now == r.lastTick {
		return
	}
	var deltas []uint64
	for i, p := range r.probes {
		v := p.Fn()
		d := v - r.prev[i]
		r.prev[i] = v
		if d != 0 && deltas == nil {
			deltas = make([]uint64, len(r.probes))
		}
		if deltas != nil {
			deltas[i] = d
		}
	}
	if deltas == nil {
		return
	}
	// The loop above only starts recording at the first nonzero delta;
	// re-read nothing — earlier probes' deltas were zero by construction.
	r.series.Epochs = append(r.series.Epochs, Epoch{Cycle: uint64(now), Deltas: deltas})
	r.lastTick = now
}

// Finish takes the final (possibly partial) sample after the run drains and
// stamps the series with the finish cycle. The machine calls this once from
// RunContext; calling it on an unstarted recorder is a no-op.
func (r *Recorder) Finish() {
	if !r.started {
		return
	}
	r.sample()
	r.series.FinalCycle = uint64(r.eng.Now())
}

// Series returns the recorded time series. Valid after Finish; the returned
// value shares the recorder's backing arrays, so treat it as read-only.
func (r *Recorder) Series() TimeSeries { return r.series }
