package cache

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/table"
)

// MSHR models the miss status holding registers of a cache controller: one
// entry per in-flight line fill, each holding the continuations waiting for
// the fill to complete. Secondary misses on the same line coalesce onto the
// existing entry instead of issuing new requests.
//
// The file is a table.Table of inline entries sized at twice the entry
// capacity, so it never reaches the table's 3/4 growth load. Waiters are
// pooled free-list nodes, so steady-state miss coalescing allocates nothing.
type MSHR struct {
	capacity int
	tab      table.Table[mshrEntry]
	freeW    *mshrWaiter
}

// mshrEntry is one in-flight fill: its FIFO of coalesced waiters.
type mshrEntry struct {
	wantWrite  bool // some waiter needs write permission
	head, tail *mshrWaiter
}

// mshrWaiter is a pooled FIFO node holding one coalesced continuation.
type mshrWaiter struct {
	c    sim.Cont
	next *mshrWaiter
}

// NewMSHR returns an MSHR file with the given entry capacity.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d", capacity))
	}
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	m := &MSHR{capacity: capacity}
	m.tab.Init(size)
	return m
}

// pushWaiter appends a continuation to the slot's FIFO, reusing pool nodes.
func (m *MSHR) pushWaiter(s *mshrEntry, c sim.Cont) {
	w := m.freeW
	if w != nil {
		m.freeW = w.next
		w.next = nil
	} else {
		w = &mshrWaiter{}
	}
	w.c = c
	if s.tail == nil {
		s.head = w
	} else {
		s.tail.next = w
	}
	s.tail = w
}

// Pending reports whether a fill for lineAddr is already in flight.
func (m *MSHR) Pending(lineAddr uint64) bool { return m.tab.Get(lineAddr) != nil }

// Full reports whether no new entry can be allocated.
func (m *MSHR) Full() bool { return m.tab.Len() >= m.capacity }

// InFlight returns the number of allocated entries.
func (m *MSHR) InFlight() int { return m.tab.Len() }

// Allocate creates an entry for lineAddr with one waiter. It reports false
// (and does nothing) when the file is full. Allocating an already-pending
// line is a bug: callers must coalesce via AddWaiter.
func (m *MSHR) Allocate(lineAddr uint64, write bool, waiter sim.Cont) bool {
	if m.Pending(lineAddr) {
		panic(fmt.Sprintf("cache: MSHR double-allocate for line %#x", lineAddr))
	}
	if m.Full() {
		return false
	}
	s, _ := m.tab.Put(lineAddr)
	s.wantWrite = write
	if waiter == nil {
		waiter = sim.Nop
	}
	m.pushWaiter(s, waiter)
	return true
}

// AddWaiter coalesces a secondary miss onto the pending entry.
func (m *MSHR) AddWaiter(lineAddr uint64, write bool, waiter sim.Cont) {
	s := m.tab.Get(lineAddr)
	if s == nil {
		panic(fmt.Sprintf("cache: AddWaiter on non-pending line %#x", lineAddr))
	}
	if waiter == nil {
		waiter = sim.Nop
	}
	m.pushWaiter(s, waiter)
	s.wantWrite = s.wantWrite || write
}

// WantsWrite reports whether the pending entry requires write permission.
func (m *MSHR) WantsWrite(lineAddr uint64) bool {
	s := m.tab.Get(lineAddr)
	return s != nil && s.wantWrite
}

// Complete removes the entry and hands each waiter to fire in FIFO order.
// Waiter nodes return to the pool before fire runs, so a continuation that
// re-enters the MSHR reuses them immediately.
func (m *MSHR) Complete(lineAddr uint64, fire func(sim.Cont)) {
	s, ok := m.tab.Delete(lineAddr)
	if !ok {
		panic(fmt.Sprintf("cache: Complete on non-pending line %#x", lineAddr))
	}
	w := s.head
	for w != nil {
		n := w.next
		c := w.c
		w.c = nil
		w.next = m.freeW
		m.freeW = w
		fire(c)
		w = n
	}
}
