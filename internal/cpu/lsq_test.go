package cpu

import (
	"math/rand"
	"testing"
)

// scanLSQ is the reference the indexed lsq must match: the plain ring with
// linear scans for completion (lowest live matching slot) and re-check.
type scanLSQ struct {
	slots []lsqEntry
	pos   int
}

func (q *scanLSQ) insert(addr uint64, store bool) {
	q.slots[q.pos] = lsqEntry{addr: addr, store: store, live: true}
	q.pos = (q.pos + 1) % len(q.slots)
}

func (q *scanLSQ) remove(addr uint64, store bool) {
	for i := range q.slots {
		e := &q.slots[i]
		if e.live && e.addr == addr && e.store == store {
			e.live = false
			return
		}
	}
}

func (q *scanLSQ) conflict(addr uint64, store bool) bool {
	const wordMask = ^uint64(7)
	for i := range q.slots {
		e := &q.slots[i]
		if e.live && e.addr&wordMask == addr&wordMask && (e.store || store) {
			return true
		}
	}
	return false
}

// TestLSQMatchesLinearScan drives the indexed LSQ and the linear-scan
// reference through identical random sequences of issues, completions and
// re-checks. Addresses come from a small pool (many duplicates, several
// sub-word offsets of one word), completions of overwritten accesses are
// common, and issues outrun completions so ring wraps overwrite live slots.
// After every operation the set of live slots must agree slot for slot,
// which pins the lowest-live-slot rule; every re-check must agree too.
func TestLSQMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 3, 8, 80} {
		for seed := int64(1); seed <= 25; seed++ {
			rnd := rand.New(rand.NewSource(seed*1000 + int64(n)))
			got := newLSQ(n)
			want := scanLSQ{slots: make([]lsqEntry, n)}
			addr := func() uint64 {
				return 0x1000 + uint64(rnd.Intn(2*n+2))*8 + uint64(rnd.Intn(8)&4)
			}
			var issued []lsqEntry // accesses that may still complete
			for op := 0; op < 4000; op++ {
				switch r := rnd.Intn(10); {
				case r < 5:
					a, st := addr(), rnd.Intn(3) == 0
					got.insert(a, st)
					want.insert(a, st)
					issued = append(issued, lsqEntry{addr: a, store: st})
				case r < 8 && len(issued) > 0:
					i := rnd.Intn(len(issued))
					e := issued[i]
					issued[i] = issued[len(issued)-1]
					issued = issued[:len(issued)-1]
					got.remove(e.addr, e.store)
					want.remove(e.addr, e.store)
				default:
					a, st := addr(), rnd.Intn(2) == 0
					if g, w := got.conflict(a, st), want.conflict(a, st); g != w {
						t.Fatalf("n=%d seed %d op %d: conflict(%#x, %v) = %v, linear scan %v", n, seed, op, a, st, g, w)
					}
				}
				for s := range want.slots {
					g, w := got.slots[s], want.slots[s]
					if g.live != w.live || (w.live && (g.addr != w.addr || g.store != w.store)) {
						t.Fatalf("n=%d seed %d op %d: slot %d = %+v, linear scan %+v", n, seed, op, s, g, w)
					}
				}
			}
		}
	}
}
