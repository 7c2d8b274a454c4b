package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newMesh(t *testing.T, w, h int) (*sim.Engine, *Mesh) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, w, h, 16, 1, 1)
}

func TestHopsXY(t *testing.T) {
	_, m := newMesh(t, 8, 8)
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 7, 7},
		{0, 63, 14},
		{9, 18, 2}, // (1,1) -> (2,2)
		{63, 0, 14},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestFlits(t *testing.T) {
	_, m := newMesh(t, 2, 2)
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {64, 4}, {72, 5},
	}
	for _, c := range cases {
		if got := m.Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var arrived sim.Time
	// 1-flit control packet 0 -> 1: one hop = router + link = 2 cycles.
	m.Send(0, 1, 8, Read, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != 2 {
		t.Fatalf("1-hop control packet arrived at %d, want 2", arrived)
	}
}

func TestDataPacketSerialization(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var arrived sim.Time
	// 64B data = 4 flits, one hop: 2 cycles + 3 serialization = 5.
	m.Send(0, 1, 64, Read, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != 5 {
		t.Fatalf("64B packet arrived at %d, want 5", arrived)
	}
}

func TestMultiHopLatency(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var arrived sim.Time
	// 0 -> 63 is 14 hops; 1 flit: 14 * 2 = 28.
	m.Send(0, 63, 8, CohProt, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != 28 {
		t.Fatalf("14-hop packet arrived at %d, want 28", arrived)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	var arrived sim.Time
	m.Send(3, 3, 64, Write, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != 1 {
		t.Fatalf("local packet arrived at %d, want 1 (router only)", arrived)
	}
	if m.Hops(3, 3) != 0 {
		t.Fatal("Hops(x,x) != 0")
	}
}

func TestLinkContention(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var first, second sim.Time
	// Two 4-flit packets on the same link back to back: the second waits
	// for the first's 4-cycle link reservation.
	m.Send(0, 1, 64, Read, func() { first = eng.Now() })
	m.Send(0, 1, 64, Read, func() { second = eng.Now() })
	eng.Run()
	if first != 5 {
		t.Fatalf("first arrived at %d, want 5", first)
	}
	if second != 9 {
		t.Fatalf("second arrived at %d, want 9 (4-cycle link occupancy)", second)
	}
}

func TestDisjointLinksNoContention(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var a, b sim.Time
	m.Send(0, 1, 64, Read, func() { a = eng.Now() })
	m.Send(8, 9, 64, Read, func() { b = eng.Now() })
	eng.Run()
	if a != 5 || b != 5 {
		t.Fatalf("disjoint packets arrived at %d,%d, want 5,5", a, b)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	m.Send(0, 1, 64, Read, nil)
	m.Send(0, 1, 8, CohProt, nil)
	m.Send(0, 2, 64, DMA, nil)
	eng.Run()
	if got := m.Packets(Read); got != 1 {
		t.Fatalf("Packets(Read) = %d, want 1", got)
	}
	if got := m.TotalPackets(); got != 3 {
		t.Fatalf("TotalPackets = %d, want 3", got)
	}
	if got := m.FlitHops(Read); got != 4 {
		t.Fatalf("FlitHops(Read) = %d, want 4 (4 flits * 1 hop)", got)
	}
	if got := m.FlitHops(DMA); got != 8 {
		t.Fatalf("FlitHops(DMA) = %d, want 8 (4 flits * 2 hops)", got)
	}
	if got := m.FlitHops(CohProt); got != 1 {
		t.Fatalf("FlitHops(CohProt) = %d, want 1", got)
	}
	c := m.Counters()
	if c.Get("pkts.Read") != 1 || c.Get("flithops.DMA") != 8 {
		t.Fatalf("Counters() wrong: %v", c)
	}
}

func TestLatencyDistribution(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	m.Send(0, 1, 8, Read, nil)
	m.Send(63, 0, 8, Read, nil) // disjoint links from the first packet
	eng.Run()
	d := m.Latency()
	if d.Count != 2 {
		t.Fatalf("latency samples = %d, want 2", d.Count)
	}
	if d.Min != 2 || d.Max != 28 {
		t.Fatalf("latency min/max = %d/%d, want 2/28", d.Min, d.Max)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("Send to out-of-range node did not panic")
		}
	}()
	m.Send(0, 99, 8, Read, nil)
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		Ifetch: "Ifetch", Read: "Read", Write: "Write",
		WBRepl: "WB-Repl", DMA: "DMA", CohProt: "CohProt",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

// Property: every packet arrives, and never earlier than the uncontended
// XY latency lower bound.
func TestDeliveryLowerBoundProperty(t *testing.T) {
	prop := func(pairs []uint16, size uint8) bool {
		eng := sim.NewEngine()
		m := New(eng, 4, 4, 16, 1, 1)
		bytes := int(size%128) + 1
		type rec struct {
			src, dst int
			at       sim.Time
		}
		var got []rec
		for _, p := range pairs {
			src, dst := int(p)%16, int(p>>4)%16
			m.Send(src, dst, bytes, Read, func() {
				got = append(got, rec{src, dst, eng.Now()})
			})
		}
		eng.Run()
		if len(got) != len(pairs) {
			return false
		}
		flits := m.Flits(bytes)
		for _, r := range got {
			var lower sim.Time
			if r.src == r.dst {
				lower = 1
			} else {
				lower = sim.Time(2*m.Hops(r.src, r.dst) + flits - 1)
			}
			if r.at < lower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: flit-hop accounting equals sum over packets of flits*hops.
func TestFlitHopAccountingProperty(t *testing.T) {
	prop := func(pairs []uint16) bool {
		eng := sim.NewEngine()
		m := New(eng, 4, 4, 16, 1, 1)
		var want uint64
		for _, p := range pairs {
			src := int(p) % 16
			dst := int(p>>4) % 16
			m.Send(src, dst, 64, DMA, nil)
			want += uint64(m.Flits(64) * m.Hops(src, dst))
		}
		eng.Run()
		return m.FlitHops(DMA) == want && m.TotalFlitHops() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOneEventPerPacket: the whole route is reserved at injection, so every
// packet, whatever its hop count, costs the engine exactly one event.
func TestOneEventPerPacket(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 8, 8, 16, 1, 1)
	rnd := rand.New(rand.NewSource(7))
	const n = 2000
	delivered := 0
	for i := 0; i < n; i++ {
		src, dst := rnd.Intn(64), rnd.Intn(64)
		m.Send(src, dst, 1+rnd.Intn(96), Category(rnd.Intn(int(NumCategories))), func() { delivered++ })
	}
	if got := eng.Pending(); got != n {
		t.Fatalf("pending after %d sends = %d, want %d", n, got, n)
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d packets", delivered, n)
	}
	if got := eng.Fired(); got != n {
		t.Fatalf("engine fired %d events for %d packets, want one each", got, n)
	}
}

// TestLinkHeldInInjectionOrder pins the route-reservation rule: a packet
// holds every link of its route in the order packets were injected, not the
// order they reach each link. A is sent first, 0 -> 2 with 4 flits, and
// reserves link 1->2 for cycles 2-5 before it gets there. B, sent from 1 to
// 2 at the same cycle, reaches that link first (cycle 0) but must wait
// behind A's reservation.
func TestLinkHeldInInjectionOrder(t *testing.T) {
	eng, m := newMesh(t, 8, 8)
	var a, b sim.Time
	m.Send(0, 2, 64, Read, func() { a = eng.Now() })
	m.Send(1, 2, 64, Read, func() { b = eng.Now() })
	eng.Run()
	// A: 2 hops (4 cycles) + 3 serialization. B: waits to cycle 6,
	// then 1 hop (2 cycles) + 3 serialization.
	if a != 7 {
		t.Fatalf("A arrived at %d, want 7", a)
	}
	if b != 11 {
		t.Fatalf("B arrived at %d, want 11 (link 1->2 held for A from injection)", b)
	}
}
