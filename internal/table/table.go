// Package table is the open-addressed hash table behind the simulator's
// keyed hardware structures: the coherence directory, the MSHR files, the
// FilterDir busy set and the SPM mapping oracle.
//
// Keys are uint64 and values live inline in the slots. The home slot is
// Fibonacci hashing (multiply by the 64-bit golden ratio and mask),
// collisions probe linearly, the table doubles at 3/4 load, and deletion
// shifts displaced successors back so no tombstones accumulate. A slot
// stores the complement of its key, so an all-zero slot is empty and
// occupancy costs no bytes beyond the key itself; the price is one reserved
// key, ^uint64(0), which Put refuses. Callers key by line numbers and
// aligned base addresses, which never take that value.
package table

// Reserved is the one key a Table cannot hold.
const Reserved = ^uint64(0)

type slot[V any] struct {
	nkey uint64 // ^key; 0 marks an empty slot
	val  V
}

// Table maps uint64 keys to inline values of type V. The zero Table is not
// usable; call Init first. A value pointer returned by Get or Put is valid
// until the next Put or Delete on the same table: Put may grow the slot
// array and Delete shifts slots.
type Table[V any] struct {
	mask  uint64
	n     int
	slots []slot[V]
}

// Init empties the table and sizes it to size slots, a power of two >= 2.
func (t *Table[V]) Init(size int) {
	t.slots = make([]slot[V], size)
	t.mask = uint64(size - 1)
	t.n = 0
}

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) & t.mask
}

// find returns the slot index holding key, or the empty slot ending its
// probe chain and false. Testing for empty first keeps Reserved absent.
func (t *Table[V]) find(key uint64) (uint64, bool) {
	nk := ^key
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.slots[i].nkey {
		case 0:
			return i, false
		case nk:
			return i, true
		}
	}
}

// Get returns the value stored under key, or nil.
func (t *Table[V]) Get(key uint64) *V {
	if i, ok := t.find(key); ok {
		return &t.slots[i].val
	}
	return nil
}

// Put returns the value stored under key, inserting a zero value first when
// key is absent; fresh reports that insertion.
func (t *Table[V]) Put(key uint64) (v *V, fresh bool) {
	if key == Reserved {
		panic("table: Put of the reserved key")
	}
	i, ok := t.find(key)
	if ok {
		return &t.slots[i].val, false
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		i, _ = t.find(key)
	}
	t.slots[i].nkey = ^key
	t.n++
	return &t.slots[i].val, true
}

func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]slot[V], 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.nkey != 0 {
			i, _ := t.find(^s.nkey)
			t.slots[i] = s
		}
	}
}

// Delete removes key and returns the value it held; ok is false (and the
// table unchanged) when key was absent.
func (t *Table[V]) Delete(key uint64) (v V, ok bool) {
	i, ok := t.find(key)
	if !ok {
		return v, false
	}
	v = t.slots[i].val
	t.n--
	// Back-shift: any later element of the chain whose home slot lies
	// cyclically outside (i, j] moves into the hole at i, and the scan
	// repeats from the hole it left.
	for j := i; ; {
		t.slots[i] = slot[V]{}
		for {
			j = (j + 1) & t.mask
			s := &t.slots[j]
			if s.nkey == 0 {
				return v, true
			}
			k := t.home(^s.nkey)
			if (j >= i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
				t.slots[i] = *s
				i = j
				break
			}
		}
	}
}

// Each calls f for every key and its value, in slot order. f must not Put
// or Delete.
func (t *Table[V]) Each(f func(key uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.nkey != 0 {
			f(^s.nkey, &s.val)
		}
	}
}
