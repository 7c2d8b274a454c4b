package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent and refQueue are the obviously-correct reference the pooled
// bucket queue is checked against: a container/heap min-heap by (when, seq).
type refEvent struct {
	when Time
	seq  uint64
	fn   func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.q) }
func (r *refEngine) At(t Time, fn func()) {
	heap.Push(&r.q, refEvent{when: t, seq: r.seq, fn: fn})
	r.seq++
}
func (r *refEngine) step() {
	ev := heap.Pop(&r.q).(refEvent)
	r.now = ev.when
	ev.fn()
}
func (r *refEngine) Run() {
	for len(r.q) > 0 {
		r.step()
	}
}
func (r *refEngine) RunUntil(limit Time) {
	for len(r.q) > 0 && r.q[0].when <= limit {
		r.step()
	}
	if r.now < limit {
		r.now = limit
	}
}

// diffQueue is the surface both engines share in the differential test.
type diffQueue interface {
	Now() Time
	Pending() int
	At(t Time, fn func())
	Run()
	RunUntil(limit Time)
}

// diffScript drives one engine with a workload that is a pure function of
// the firing order: event id i, when fired, schedules children whose count
// and delays are hashed from i. Two engines that fire in the same order
// therefore schedule identically, and the first divergence shows up in log.
type diffScript struct {
	q      diffQueue
	seed   uint64
	budget int // events still allowed to be scheduled
	nextID uint64
	log    []uint64 // id<<32 | low 32 bits of now, per fired event
	peak   int      // maximum Pending() right after any schedule
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// delay picks a delay from h: same-cycle, short hardware latencies, the band
// straddling the horizon, and far overflow events.
func delay(h uint64) Time {
	switch h % 8 {
	case 0:
		return 0
	case 1, 2, 3:
		return Time(h>>3) % 120
	case 4, 5:
		return horizon - 4 + Time(h>>3)%8
	case 6:
		return horizon + Time(h>>3)%(3*horizon)
	default:
		return Time(h>>3) % (12 * horizon)
	}
}

func (s *diffScript) schedule(t Time) {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := s.nextID
	s.nextID++
	s.q.At(t, func() { s.fire(id) })
	if p := s.q.Pending(); p > s.peak {
		s.peak = p
	}
}

func (s *diffScript) fire(id uint64) {
	s.log = append(s.log, id<<32|uint64(s.q.Now())&(1<<32-1))
	h := mix(s.seed ^ id)
	for k := uint64(0); k < h%4; k++ {
		s.schedule(s.q.Now() + delay(mix(h+k)))
	}
}

// TestEngineMatchesHeapReference runs the pooled bucket queue and the
// container/heap reference through identical random scripts — external
// bursts between RunUntil windows, self-scheduling chains with delays up to
// 12 horizons, and many events per cycle — and requires the same firing
// order, clock and pending count at every checkpoint.
func TestEngineMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		e := NewEngine()
		got := &diffScript{q: e, seed: seed, budget: 20000}
		want := &diffScript{q: &refEngine{}, seed: seed, budget: 20000}
		drv := rand.New(rand.NewSource(int64(seed)))
		check := func(where string) {
			t.Helper()
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d %s: fired %d events, reference %d", seed, where, len(got.log), len(want.log))
			}
			for i := range got.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d %s: event %d is (id %d, t %d), reference (id %d, t %d)", seed, where, i,
						got.log[i]>>32, got.log[i]&(1<<32-1), want.log[i]>>32, want.log[i]&(1<<32-1))
				}
			}
			if got.q.Now() != want.q.Now() || got.q.Pending() != want.q.Pending() {
				t.Fatalf("seed %d %s: now=%d pending=%d, reference now=%d pending=%d", seed, where,
					got.q.Now(), got.q.Pending(), want.q.Now(), want.q.Pending())
			}
		}
		for round := 0; round < 30; round++ {
			// An external burst: some cycles receive many events.
			burst := drv.Intn(40)
			base := got.q.Now()
			for i := 0; i < burst; i++ {
				d := delay(drv.Uint64())
				if drv.Intn(3) == 0 {
					d = Time(drv.Intn(4)) * horizon / 2 // pile onto shared cycles
				}
				got.schedule(base + d)
				want.schedule(base + d)
			}
			limit := base + Time(drv.Intn(int(3*horizon)))
			got.q.RunUntil(limit)
			want.q.RunUntil(limit)
			check("RunUntil")
		}
		got.q.Run()
		want.q.Run()
		check("Run")
		if e.Fired() != uint64(len(got.log)) {
			t.Fatalf("seed %d: Fired() = %d, logged %d", seed, e.Fired(), len(got.log))
		}
		// The pool never holds more nodes than events were ever pending
		// at once (nodes[0] is the sentinel).
		if n := len(e.nodes) - 1; n > got.peak {
			t.Fatalf("seed %d: pool grew to %d nodes, peak pending %d", seed, n, got.peak)
		}
	}
}
