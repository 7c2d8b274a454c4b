// Package sim provides the discrete-event simulation kernel that every
// hardware model in this repository is built on.
//
// The kernel is a deterministic event queue: events scheduled for the same
// cycle fire in the order they were scheduled (FIFO tie-breaking by sequence
// number), so a simulation run is a pure function of its inputs. Components
// interact only by scheduling closures on the shared Engine; there is no
// goroutine-level concurrency inside a simulation, which keeps runs
// reproducible and race-free by construction.
//
// Internally the queue is a two-level bucket (calendar) queue. Events within
// the near horizon — the next 2^horizonBits cycles — land in a ring of
// per-cycle FIFOs, so the hot path (hardware latencies are tens to hundreds
// of cycles) is a tail link on schedule and a head unlink on fire: no
// comparisons, no reheapification, no per-event allocation in steady state.
// Every FIFO threads its events through one engine-wide node pool with a
// free list, so event storage is bounded by the peak number of pending
// events, not by the sum of every cycle slot's own peak. The rare event
// beyond the horizon goes to a typed overflow min-heap and migrates into the
// ring as the window advances. See DESIGN.md §3.
package sim

import "fmt"

// Time is the simulated clock, measured in core cycles.
type Time uint64

// Cont is a schedulable continuation. Hot-path hardware models implement it
// on pooled (free-listed) nodes so that steady-state scheduling allocates
// nothing: boxing a pointer into the interface is allocation-free, and the
// node is recycled after Fire returns. Plain closures still schedule through
// Schedule/At, which adapt them via a func-typed Cont (also allocation-free,
// since func values are pointer-shaped).
type Cont interface{ Fire() }

// funcCont adapts an ordinary closure to Cont without allocating.
type funcCont func()

func (f funcCont) Fire() { f() }

// AsCont wraps fn as a Cont, mapping nil to Nop. The conversion never
// allocates; the closure itself was allocated by the caller (or is
// capture-free and static).
func AsCont(fn func()) Cont {
	if fn == nil {
		return Nop
	}
	return funcCont(fn)
}

// nopCont is scheduled in place of nil continuations so that event counts —
// part of the determinism contract pinned by the golden stats test — do not
// depend on whether a caller wanted a completion callback.
type nopCont struct{}

func (nopCont) Fire() {}

// Nop is the shared no-op continuation.
var Nop Cont = nopCont{}

const (
	// horizonBits sizes the near-horizon ring: events within
	// 2^horizonBits cycles of now take the bucket fast path. Hardware
	// model latencies (L1 2, L2 15, DRAM 100, DMA bursts) sit far below
	// this, so the overflow heap is essentially cold.
	horizonBits = 10
	horizon     = Time(1) << horizonBits
	ringMask    = horizon - 1
)

// event is a scheduled continuation.
type event struct {
	when Time
	seq  uint64
	c    Cont
}

func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// node is one pooled ring entry. A ring bucket holds events of a single
// cycle, so the node needs no timestamp; seq orders the rare out-of-order
// insert. next links the bucket's FIFO, or the free list once released.
type node struct {
	c    Cont
	seq  uint64
	next int32
}

// bucket is one ring slot: the FIFO of events for a single cycle, as
// head/tail indices into the engine's node pool. Index 0 is the pool's
// sentinel, so the zero bucket is empty.
type bucket struct{ head, tail int32 }

// Engine is the event-driven simulation core. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	ring      []bucket // len horizon; slot for cycle t is ring[t&ringMask]
	ringCount int      // events currently in the ring
	overflow  []event  // min-heap by (when, seq): events beyond the horizon

	// nodes is the pool every ring bucket links through; nodes[0] is the
	// sentinel. free heads the LIFO list of released nodes (0 = none),
	// so the pool only grows when more events are pending than ever
	// before.
	nodes []node
	free  int32

	// scanHint is a cycle such that no pending ring event is earlier;
	// the fire-path scan starts here instead of at now, making the scan
	// amortized O(1) across a run.
	scanHint Time

	fired uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{ring: make([]bucket, horizon), nodes: make([]node, 1, 256)}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far. Useful for progress
// reporting and for tests that assert on event counts.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.ringCount + len(e.overflow) }

// Schedule enqueues fn to run delay cycles from now. A delay of zero runs fn
// later in the current cycle, after all previously scheduled work for this
// cycle.
func (e *Engine) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	e.AtCont(e.now+delay, funcCont(fn))
}

// ScheduleCont is Schedule for pooled continuations: no adapter, no
// allocation.
func (e *Engine) ScheduleCont(delay Time, c Cont) {
	e.AtCont(e.now+delay, c)
}

// At enqueues fn at absolute cycle t. Scheduling in the past is a programming
// error and panics: silently reordering time would corrupt every model built
// on the kernel.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	e.AtCont(t, funcCont(fn))
}

// AtCont enqueues a continuation at absolute cycle t.
func (e *Engine) AtCont(t Time, c Cont) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if c == nil {
		panic("sim: scheduling nil event")
	}
	ev := event{when: t, seq: e.seq, c: c}
	e.seq++
	if t < e.now+horizon {
		e.pushRing(ev)
		return
	}
	e.pushOverflow(ev)
}

// pushRing links ev into its cycle's bucket, keeping the bucket sorted by
// seq. The fast path is a tail link: seq grows monotonically, so live
// scheduling always lands at the end. The ordered insert only runs when the
// overflow heap drains an old (smaller-seq) event into a cycle that already
// has residents.
func (e *Engine) pushRing(ev event) {
	n := e.free
	if n != 0 {
		e.free = e.nodes[n].next
		e.nodes[n] = node{c: ev.c, seq: ev.seq}
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{c: ev.c, seq: ev.seq})
	}
	b := &e.ring[ev.when&ringMask]
	switch {
	case b.head == 0:
		b.head, b.tail = n, n
	case e.nodes[b.tail].seq < ev.seq:
		e.nodes[b.tail].next = n
		b.tail = n
	case ev.seq < e.nodes[b.head].seq:
		e.nodes[n].next = b.head
		b.head = n
	default:
		p := b.head
		for e.nodes[e.nodes[p].next].seq < ev.seq {
			p = e.nodes[p].next
		}
		e.nodes[n].next = e.nodes[p].next
		e.nodes[p].next = n
	}
	e.ringCount++
	if ev.when < e.scanHint {
		e.scanHint = ev.when
	}
}

// popRing unlinks the earliest-scheduled event of bucket b, returns its
// node to the free list and hands back its continuation.
func (e *Engine) popRing(b *bucket) Cont {
	n := b.head
	nd := &e.nodes[n]
	c := nd.c
	b.head = nd.next
	if b.head == 0 {
		b.tail = 0
	}
	*nd = node{next: e.free} // release the closure
	e.free = n
	e.ringCount--
	return c
}

// drainTo migrates overflow events with when < limit into the ring. Events
// drain in (when, seq) order; pushRing restores FIFO position ahead of any
// younger residents scheduled after the window already covered their
// cycle.
func (e *Engine) drainTo(limit Time) {
	for len(e.overflow) > 0 && e.overflow[0].when < limit {
		e.pushRing(e.popOverflow())
	}
}

// Step executes the single earliest event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	if e.ringCount == 0 {
		if len(e.overflow) == 0 {
			return false
		}
		// Near window is dry: jump the clock to the earliest far event
		// so the window [now, now+horizon) covers it. Nothing can fire
		// in between — the ring is empty and overflow holds nothing
		// earlier. Keeping now as the window base preserves the
		// invariant that every ring event's cycle maps to a unique bucket.
		if t := e.overflow[0].when; t > e.now {
			e.now = t
		}
	}
	e.drainTo(e.now + horizon)
	s := e.scanHint
	if s < e.now {
		s = e.now
	}
	for e.ring[s&ringMask].head == 0 {
		s++
	}
	e.scanHint = s
	c := e.popRing(&e.ring[s&ringMask])
	e.now = s
	e.fired++
	c.Fire()
	return true
}

// nextTime reports the timestamp of the earliest pending event. As a side
// effect it advances scanHint past verified-empty cycles, which Step reuses.
func (e *Engine) nextTime() (Time, bool) {
	if e.ringCount > 0 {
		// All ring events precede every overflow event: an event only
		// overflows when it lies beyond the window end, which in turn
		// bounds every ring resident.
		s := e.scanHint
		if s < e.now {
			s = e.now
		}
		for e.ring[s&ringMask].head == 0 {
			s++
		}
		e.scanHint = s
		return s, true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// Run executes events until the queue drains. A caller that must stop
// earlier drives Step itself, as system.Machine.RunContext does for context
// cancellation and the event budget.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= limit, leaving later events
// queued. The clock is advanced to limit if the queue drains earlier.
func (e *Engine) RunUntil(limit Time) {
	for {
		t, ok := e.nextTime()
		if !ok || t > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// ---------------------------------------------------------------------------
// Typed overflow min-heap — hand-rolled so far-horizon events pay no
// interface boxing either.

func (e *Engine) pushOverflow(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

func (e *Engine) popOverflow() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && eventLess(h[l], h[m]) {
			m = l
		}
		if r < n && eventLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.overflow = h
	return top
}
