package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() { at = e.Now() })
	e.Run()
	if at != 10 {
		t.Fatalf("event ran at %d, want 10", at)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-cycle events must run FIFO)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(1, func() {
		trace = append(trace, e.Now())
		e.Schedule(2, func() {
			trace = append(trace, e.Now())
			e.Schedule(0, func() { trace = append(trace, e.Now()) })
		})
	})
	e.Run()
	want := []Time{1, 3, 3}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestZeroDelaySameCycleOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.Schedule(0, func() { order = append(order, "b") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	for _, d := range []Time{1, 5, 10, 20} {
		d := d
		e.Schedule(d, func() { ran[d] = true })
	}
	e.RunUntil(10)
	if !ran[1] || !ran[5] || !ran[10] {
		t.Fatalf("events <= 10 should have run: %v", ran)
	}
	if ran[20] {
		t.Fatal("event at 20 ran during RunUntil(10)")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", e.Fired())
	}
}

// Property: regardless of the (delay) multiset scheduled, events fire in
// non-decreasing time order and all of them fire.
func TestEventOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: same-cycle events preserve scheduling order even when interleaved
// with other cycles.
func TestSameCycleFIFOProperty(t *testing.T) {
	prop := func(delays []uint8) bool {
		e := NewEngine()
		perCycle := map[Time][]int{}
		var got = map[Time][]int{}
		for i, d := range delays {
			i, d := i, Time(d)
			perCycle[d] = append(perCycle[d], i)
			e.Schedule(d, func() { got[d] = append(got[d], i) })
		}
		e.Run()
		for cyc, want := range perCycle {
			g := got[cyc]
			if len(g) != len(want) {
				return false
			}
			for i := range want {
				if g[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- bucket/calendar queue edge cases -------------------------------------

func TestFarHorizonOverflow(t *testing.T) {
	e := NewEngine()
	var fired []Time
	// Mix of near (ring) and far (overflow heap) events, scheduled out of
	// time order.
	delays := []Time{3 * horizon, 1, 10 * horizon, horizon - 1, horizon, 2*horizon + 5, 0}
	for _, d := range delays {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	if e.Pending() != len(delays) {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), len(delays))
	}
	e.Run()
	want := []Time{0, 1, horizon - 1, horizon, 2*horizon + 5, 3 * horizon, 10 * horizon}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestOverflowDrainPreservesFIFO pins the subtle merge case: an event
// scheduled for cycle T while T was beyond the horizon (overflow) must still
// fire BEFORE an event scheduled for the same T after the window had advanced
// to cover it (ring resident), because it was scheduled first.
func TestOverflowDrainPreservesFIFO(t *testing.T) {
	e := NewEngine()
	const target = 3 * horizon / 2 // beyond the initial window
	var order []string
	e.At(target, func() { order = append(order, "early") }) // goes to overflow
	// An intermediate event inside the window; by the time it fires, the
	// window covers target, so the next schedule is a ring resident.
	e.Schedule(horizon-1, func() {
		e.At(target, func() { order = append(order, "late") })
	})
	e.Run()
	if got := len(order); got != 2 {
		t.Fatalf("fired %d events at target, want 2", got)
	}
	if order[0] != "early" || order[1] != "late" {
		t.Fatalf("order = %v, want [early late] (overflow event was scheduled first)", order)
	}
}

func TestManySameCycleAcrossOverflow(t *testing.T) {
	e := NewEngine()
	const target = 2 * horizon
	var order []int
	// First half scheduled while target is far (overflow), second half
	// scheduled after the window advanced (ring).
	for i := 0; i < 8; i++ {
		i := i
		e.At(target, func() { order = append(order, i) })
	}
	e.Schedule(3*horizon/2, func() {
		for i := 8; i < 16; i++ {
			i := i
			e.At(target, func() { order = append(order, i) })
		}
	})
	e.Run()
	if len(order) != 16 {
		t.Fatalf("fired %d events, want 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want 0..15 in sequence", order)
		}
	}
}

func TestRunUntilAcrossEmptyRing(t *testing.T) {
	e := NewEngine()
	var fired []Time
	// Only far events: the ring is empty until the window jumps.
	for _, d := range []Time{5 * horizon, 7 * horizon} {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(6 * horizon)
	if len(fired) != 1 || fired[0] != 5*horizon {
		t.Fatalf("fired = %v, want [%d]", fired, 5*horizon)
	}
	if e.Now() != 6*horizon {
		t.Fatalf("Now() = %d, want %d", e.Now(), 6*horizon)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(100 * horizon)
	if len(fired) != 2 || e.Now() != 100*horizon {
		t.Fatalf("fired = %v, Now() = %d", fired, e.Now())
	}
}

func TestScheduleBehindScanHint(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(500, func() { fired = append(fired, e.Now()) })
	// RunUntil(100) fires nothing but peeks ahead, advancing the internal
	// scan hint to 500. A later schedule at 200 must still fire first.
	e.RunUntil(100)
	e.At(200, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 2 || fired[0] != 200 || fired[1] != 500 {
		t.Fatalf("fired = %v, want [200 500]", fired)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineSteadyState measures the per-event cost with a warm engine:
// a self-sustaining event cascade like the hardware models generate. This is
// the number the bucket queue optimizes — pooled nodes are reused, so the
// steady state allocates nothing per event.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Warm the node pool once.
	for j := 0; j < 64; j++ {
		e.Schedule(Time(j%7), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%97), fn)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineFarHorizon stresses the overflow heap: every event lands
// beyond the near window and must migrate through a drain.
func BenchmarkEngineFarHorizon(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(horizon*Time(1+j%13), func() {})
		}
		e.Run()
	}
}
