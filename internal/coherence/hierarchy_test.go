package coherence

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// rig builds a small 4-core hierarchy.
type rig struct {
	eng  *sim.Engine
	mesh *noc.Mesh
	dram *mem.System
	h    *Hierarchy
	cfg  config.Config
}

func newRig(t testing.TB) *rig { return newRigWith(t, nil) }

// newRigWith is newRig with the config adjusted by edit first.
func newRigWith(t testing.TB, edit func(*config.Config)) *rig {
	cfg := config.SmallTest()
	if edit != nil {
		edit(&cfg)
	}
	eng := sim.NewEngine()
	mesh := noc.New(eng, cfg.MeshWidth, cfg.MeshHeight, cfg.FlitBytes, cfg.LinkLatency, cfg.RouterLatency)
	dram := mem.NewSystem(eng, []int{0}, cfg.LineSize, cfg.MemLatency, cfg.MemCyclesPerLn)
	return &rig{eng: eng, mesh: mesh, dram: dram, h: New(eng, cfg, mesh, dram), cfg: cfg}
}

// Cont-wrapping helpers so test closures stay readable.
func (r *rig) read(c int, a, pc uint64, done func()) { r.h.Read(c, a, pc, sim.AsCont(done)) }

func (r *rig) write(c int, a, pc uint64, done func()) { r.h.Write(c, a, pc, sim.AsCont(done)) }

func (r *rig) ifetch(c int, pc uint64, done func()) { r.h.IFetch(c, pc, sim.AsCont(done)) }

func (r *rig) dmaRead(c int, line uint64, done func()) { r.h.DMARead(c, line, sim.AsCont(done)) }

func (r *rig) dmaWrite(c int, line uint64, done func()) { r.h.DMAWrite(c, line, sim.AsCont(done)) }

// addr returns a byte address within a distinct line.
func addr(line uint64) uint64 { return line << 6 }

func (r *rig) drain(t testing.TB) {
	r.eng.Run()
	if err := r.h.CheckInvariants(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
}

func TestColdReadFetchesFromMemory(t *testing.T) {
	r := newRig(t)
	done := false
	r.read(1, addr(100), 0x40, func() { done = true })
	r.drain(t)
	if !done {
		t.Fatal("read never completed")
	}
	if r.h.Stats().Get("dram.reads") != 1 {
		t.Fatalf("dram.reads = %d, want 1", r.h.Stats().Get("dram.reads"))
	}
	// First reader gets a clean-exclusive grant.
	if st := r.h.L1State(1, 100); st != StateE {
		t.Fatalf("L1 state = %d, want E(%d)", st, StateE)
	}
	if r.h.DirOwner(100) != 1 {
		t.Fatalf("dir owner = %d, want 1", r.h.DirOwner(100))
	}
}

func TestSecondReadHitsL1(t *testing.T) {
	r := newRig(t)
	reads := 0
	r.read(0, addr(7), 0x40, func() {
		reads++
		r.read(0, addr(7), 0x40, func() { reads++ })
	})
	r.drain(t)
	if reads != 2 {
		t.Fatalf("reads completed = %d", reads)
	}
	if got := r.h.Stats().Get("dram.reads"); got != 1 {
		t.Fatalf("dram.reads = %d, want 1 (second read must hit L1)", got)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	r := newRig(t)
	r.read(2, addr(9), 0x40, func() {
		// E state: the store must not generate any new traffic.
		pktsBefore := r.mesh.TotalPackets()
		r.write(2, addr(9), 0x44, func() {
			if r.mesh.TotalPackets() != pktsBefore {
				t.Errorf("silent E->M upgrade generated traffic")
			}
		})
	})
	r.drain(t)
	if st := r.h.L1State(2, 9); st != StateM {
		t.Fatalf("state after store = %d, want M", st)
	}
}

func TestReadSharingDowngradesOwner(t *testing.T) {
	r := newRig(t)
	r.write(0, addr(5), 0x40, func() {
		r.read(1, addr(5), 0x44, func() {})
	})
	r.drain(t)
	if st := r.h.L1State(0, 5); st != StateS {
		t.Fatalf("old owner state = %d, want S", st)
	}
	if st := r.h.L1State(1, 5); st != StateS {
		t.Fatalf("reader state = %d, want S", st)
	}
	if r.h.DirOwner(5) != -1 {
		t.Fatalf("owner = %d, want -1", r.h.DirOwner(5))
	}
	if sh := r.h.DirSharers(5); sh != 0b11 {
		t.Fatalf("sharers = %b, want 11", sh)
	}
	if r.h.Stats().Get("dir.fwd_gets") != 1 {
		t.Fatal("expected a forwarded GetS")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t)
	// Three cores read, then core 3 writes.
	n := 0
	read := func(c int, next func()) func() {
		return func() {
			r.read(c, addr(5), 0x40, func() { n++; next() })
		}
	}
	read(0, read(1, read(2, func() {
		r.write(3, addr(5), 0x50, func() { n++ })
	})))()
	r.drain(t)
	if n != 4 {
		t.Fatalf("completed = %d, want 4", n)
	}
	for c := 0; c < 3; c++ {
		if st := r.h.L1State(c, 5); st != cache.Invalid {
			t.Fatalf("core %d state = %d, want invalid", c, st)
		}
	}
	if st := r.h.L1State(3, 5); st != StateM {
		t.Fatalf("writer state = %d, want M", st)
	}
	if r.h.DirOwner(5) != 3 {
		t.Fatalf("dir owner = %d, want 3", r.h.DirOwner(5))
	}
}

func TestOwnershipTransferOnWrite(t *testing.T) {
	r := newRig(t)
	r.write(0, addr(11), 0x40, func() {
		r.write(1, addr(11), 0x44, func() {})
	})
	r.drain(t)
	if st := r.h.L1State(0, 11); st != cache.Invalid {
		t.Fatalf("old owner state = %d, want invalid", st)
	}
	if st := r.h.L1State(1, 11); st != StateM {
		t.Fatalf("new owner state = %d, want M", st)
	}
	if r.h.Stats().Get("dir.fwd_getm") != 1 {
		t.Fatal("expected a forwarded GetM")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	r := newRig(t)
	// Core 0 and 1 read (S), core 0 upgrades with a store.
	r.read(0, addr(20), 0x40, func() {
		r.read(1, addr(20), 0x44, func() {
			r.write(0, addr(20), 0x48, func() {})
		})
	})
	r.drain(t)
	if st := r.h.L1State(0, 20); st != StateM {
		t.Fatalf("upgrader state = %d, want M", st)
	}
	if st := r.h.L1State(1, 20); st != cache.Invalid {
		t.Fatalf("other sharer state = %d, want invalid", st)
	}
	if r.h.Stats().Get("l1d.upgrades") == 0 {
		t.Fatal("upgrade path not exercised")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	r := newRig(t)
	n := 0
	// Two reads to the same line issued back to back: one memory fetch.
	r.read(0, addr(33), 0x40, func() { n++ })
	r.read(0, addr(33)+8, 0x44, func() { n++ })
	r.drain(t)
	if n != 2 {
		t.Fatalf("completed = %d", n)
	}
	if got := r.h.Stats().Get("dram.reads"); got != 1 {
		t.Fatalf("dram.reads = %d, want 1 (secondary miss must coalesce)", got)
	}
}

func TestCoalescedReadThenWriteGetsM(t *testing.T) {
	r := newRig(t)
	r.read(0, addr(42), 0x40, func() {})
	r.write(0, addr(42)+8, 0x44, func() {})
	r.drain(t)
	if st := r.h.L1State(0, 42); st != StateM {
		t.Fatalf("state = %d, want M (write coalesced onto read miss)", st)
	}
}

func TestIFetchSharedOnly(t *testing.T) {
	r := newRig(t)
	r.ifetch(0, addr(70), func() {})
	r.ifetch(1, addr(70), func() {})
	r.drain(t)
	if r.h.DirOwner(70) != -1 {
		t.Fatalf("ifetch created an owner: %d", r.h.DirOwner(70))
	}
	if sh := r.h.DirSharers(70); sh != 0b11 {
		t.Fatalf("ifetch sharers = %b, want 11", sh)
	}
	if got := r.h.Stats().Get("l1i.accesses"); got != 2 {
		t.Fatalf("l1i.accesses = %d", got)
	}
}

func TestIFetchHit(t *testing.T) {
	r := newRig(t)
	r.ifetch(0, addr(70), func() {
		r.ifetch(0, addr(70)+4, func() {})
	})
	r.drain(t)
	if got := r.h.Stats().Get("l1i.misses"); got != 1 {
		t.Fatalf("l1i.misses = %d, want 1", got)
	}
}

func TestDMAReadSnoopsDirtyWithoutInvalidating(t *testing.T) {
	r := newRig(t)
	r.write(0, addr(50), 0x40, func() {
		r.dmaRead(2, 50, func() {})
	})
	r.drain(t)
	if st := r.h.L1State(0, 50); st != StateM {
		t.Fatalf("owner state after dma-get = %d, want M (non-invalidating snoop)", st)
	}
	if r.h.Stats().Get("dma.snoops") != 1 {
		t.Fatal("dma-get did not snoop the owner")
	}
}

func TestDMAReadFromMemory(t *testing.T) {
	r := newRig(t)
	done := false
	r.dmaRead(1, 60, func() { done = true })
	r.drain(t)
	if !done {
		t.Fatal("dma read never completed")
	}
	if r.h.Stats().Get("dram.reads") != 1 {
		t.Fatalf("dram.reads = %d", r.h.Stats().Get("dram.reads"))
	}
}

func TestDMAWriteInvalidatesEverywhere(t *testing.T) {
	r := newRig(t)
	// Two sharers + dirty L2 copy, then dma-put.
	r.read(0, addr(80), 0x40, func() {
		r.read(1, addr(80), 0x44, func() {
			r.dmaWrite(2, 80, func() {})
		})
	})
	r.drain(t)
	for c := 0; c < 2; c++ {
		if st := r.h.L1State(c, 80); st != cache.Invalid {
			t.Fatalf("core %d still caches line after dma-put (state %d)", c, st)
		}
	}
	if r.h.DirOwner(80) != -1 || r.h.DirSharers(80) != 0 {
		t.Fatal("directory not cleared by dma-put")
	}
	if r.h.Stats().Get("dram.writes") == 0 {
		t.Fatal("dma-put did not write memory")
	}
}

func TestDMAWriteUncachedLine(t *testing.T) {
	r := newRig(t)
	done := false
	r.dmaWrite(3, 90, func() { done = true })
	r.drain(t)
	if !done {
		t.Fatal("dma write never completed")
	}
	if r.h.Stats().Get("dram.writes") != 1 {
		t.Fatalf("dram.writes = %d", r.h.Stats().Get("dram.writes"))
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	r := newRig(t)
	// SmallTest L1D: 4KB 4-way 64B = 16 sets. Find 5 lines that collide
	// in one (hashed) set to force an M eviction.
	probe := cache.NewArray(r.cfg.L1DSize, r.cfg.L1DAssoc, r.cfg.LineSize)
	target := probe.SetOf(0)
	var lines []uint64
	for la := uint64(0); la < 4096 && len(lines) < 5; la++ {
		if probe.SetOf(la) == target {
			lines = append(lines, la)
		}
	}
	n := 0
	var chain func(i int)
	chain = func(i int) {
		if i == 5 {
			return
		}
		// Distinct PCs so the stride prefetcher stays quiet.
		r.write(0, addr(lines[i]), uint64(0x40+8*i), func() { n++; chain(i + 1) })
	}
	chain(0)
	r.drain(t)
	if n != 5 {
		t.Fatalf("writes completed = %d", n)
	}
	if got := r.h.Stats().Get("l1.writebacks"); got != 1 {
		t.Fatalf("l1.writebacks = %d, want 1", got)
	}
}

func TestTLBMissPenalty(t *testing.T) {
	r := newRig(t)
	var first, second sim.Time
	r.read(0, 0x100000, 0x40, func() {
		first = r.eng.Now()
		// Same page: TLB hit, same line: L1 hit.
		start := r.eng.Now()
		r.read(0, 0x100008, 0x44, func() { second = r.eng.Now() - start })
	})
	r.drain(t)
	if r.h.Stats().Get("tlb.misses") != 1 {
		t.Fatalf("tlb.misses = %d, want 1", r.h.Stats().Get("tlb.misses"))
	}
	if second != sim.Time(r.cfg.L1DLatency) {
		t.Fatalf("TLB-hit L1-hit latency = %d, want %d", second, r.cfg.L1DLatency)
	}
	if first <= second {
		t.Fatal("first access (TLB miss + memory) not slower than L1 hit")
	}
}

func TestPrefetcherIssuesOnStrides(t *testing.T) {
	r := newRig(t)
	// Strided reads from one PC; prefetches should be issued.
	var step func(i int)
	step = func(i int) {
		if i == 12 {
			return
		}
		r.read(0, addr(uint64(200+i)), 0x80, func() { step(i + 1) })
	}
	step(0)
	r.drain(t)
	if r.h.Stats().Get("prefetch.issued") == 0 {
		t.Fatal("no prefetches issued for strided stream")
	}
	if r.h.PrefetchesIssued() == 0 {
		t.Fatal("prefetcher counter empty")
	}
}

func TestReadTrafficCategorized(t *testing.T) {
	r := newRig(t)
	r.read(1, addr(300), 0x40, func() {})
	r.drain(t)
	if r.mesh.Packets(noc.Read) == 0 {
		t.Fatal("read generated no Read-category packets")
	}
	if r.mesh.Packets(noc.DMA) != 0 {
		t.Fatal("read generated DMA-category packets")
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	r := newRig(t)
	n := 0
	for c := 0; c < 4; c++ {
		r.write(c, addr(500), uint64(0x40+4*c), func() { n++ })
	}
	r.drain(t)
	if n != 4 {
		t.Fatalf("completed = %d, want 4", n)
	}
	owner := r.h.DirOwner(500)
	if owner < 0 {
		t.Fatal("no final owner")
	}
	if st := r.h.L1State(owner, 500); st != StateM {
		t.Fatalf("final owner state = %d, want M", st)
	}
	m := 0
	for c := 0; c < 4; c++ {
		if st := r.h.L1State(c, 500); st == StateM || st == StateE {
			m++
		}
	}
	if m != 1 {
		t.Fatalf("%d cores hold the line exclusively, want exactly 1", m)
	}
}

// Property: single-writer-multiple-reader invariant holds after arbitrary
// interleavings of reads/writes from random cores to a small line pool.
func TestSWMRProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		r := newRig(t)
		for _, op := range ops {
			core := int(op) % 4
			line := uint64(op>>2) % 8
			write := op&0x8000 != 0
			if write {
				r.write(core, addr(line), uint64(op), func() {})
			} else {
				r.read(core, addr(line), uint64(op), func() {})
			}
		}
		r.eng.Run()
		if err := r.h.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		// SWMR: for every line, at most one M/E holder; M/E excludes S.
		for line := uint64(0); line < 8; line++ {
			excl, shared := 0, 0
			for c := 0; c < 4; c++ {
				switch r.h.L1State(c, line) {
				case StateM, StateE:
					excl++
				case StateS:
					shared++
				}
			}
			if excl > 1 || (excl == 1 && shared > 0) {
				t.Logf("line %d: excl=%d shared=%d", line, excl, shared)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every access eventually completes (no lost events/deadlocks),
// including DMA operations racing with demand traffic.
func TestCompletionProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		r := newRig(t)
		want, got := 0, 0
		for _, op := range ops {
			core := int(op) % 4
			line := uint64(op>>2) % 6
			want++
			switch (op >> 13) % 4 {
			case 0:
				r.read(core, addr(line), uint64(op), func() { got++ })
			case 1:
				r.write(core, addr(line), uint64(op), func() { got++ })
			case 2:
				r.dmaRead(core, line, func() { got++ })
			case 3:
				r.dmaWrite(core, line, func() { got++ })
			}
		}
		r.eng.Run()
		if err := r.h.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeThenEvictKeepsOwner pins the replacement-notice race: a core
// holding a line in S issues an upgrade GetM, then evicts its S copy before
// the grant arrives. Its PutS reaches the home directory behind the GetM,
// which has by then made the core the owner. The stale notice must not
// clear that ownership, or the core ends in M with no directory owner and
// a later request is granted a second one. A direct-mapped L1D lets one
// conflicting fill evict the line; the sweep slides the upgrade across the
// window in which that fill lands.
func TestUpgradeThenEvictKeepsOwner(t *testing.T) {
	const x = 40
	raced := 0
	for delay := sim.Time(0); delay < 160; delay++ {
		r := newRigWith(t, func(c *config.Config) { c.L1DAssoc = 1 })
		probe := cache.NewArray(r.cfg.L1DSize, r.cfg.L1DAssoc, r.cfg.LineSize)
		conflict := uint64(x + 1)
		for probe.SetOf(conflict) != probe.SetOf(x) {
			conflict++
		}
		// Core 1 reads first (E), then core 0: both end in S.
		r.read(1, addr(x), 0x10, func() { r.read(0, addr(x), 0x14, func() {}) })
		r.eng.Run()
		if st := r.h.L1State(0, x); st != StateS {
			t.Fatalf("setup: core 0 state = %d, want S", st)
		}
		r.read(0, addr(conflict), 0x20, func() {})
		r.eng.Schedule(delay, func() { r.write(0, addr(x), 0x30, func() {}) })
		// drain's CheckInvariants walks the L1s, so it sees core 0 left in
		// M with no directory owner.
		r.drain(t)
		if r.h.Stats().Get("l1d.upgrades") == 1 && r.h.L1State(0, x) == StateM {
			// The store hit x in S, and x was not evicted as M after the
			// grant: the conflicting fill evicted it between the two.
			raced++
		}
	}
	if raced == 0 {
		t.Fatal("no delay raced the upgrade against the eviction")
	}
}

// TestCheckInvariantsSeesOwnerlessL1Line: an L1 line in M whose directory
// entry was collected (no owner, no sharers) has nothing on the directory
// side to check, so CheckInvariants must find it by walking the L1 arrays.
func TestCheckInvariantsSeesOwnerlessL1Line(t *testing.T) {
	r := newRig(t)
	r.read(1, addr(70), 0x10, func() {})
	r.drain(t)
	r.h.l1d[2].arr.Insert(71, StateM) // forged: no directory entry for line 71
	err := r.h.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "core 2") {
		t.Fatalf("CheckInvariants = %v, want the ownerless M line on core 2", err)
	}
}
