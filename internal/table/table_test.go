package table

import (
	"testing"
	"unsafe"
)

// entry has the shape of the coherence directory's payload: a word, a
// narrower field and a flag (padded out to the next word), then pointers.
type entry struct {
	sharers    uint64
	owner      int32
	busy       bool
	head, tail *int
}

// TestSlotAddsOnlyTheKey pins the layout the complemented-key encoding buys:
// a slot is its payload plus the 8-byte key, with no occupancy flag.
func TestSlotAddsOnlyTheKey(t *testing.T) {
	if got, want := unsafe.Sizeof(slot[entry]{}), unsafe.Sizeof(entry{})+8; got != want {
		t.Fatalf("slot[entry] is %d bytes, want %d", got, want)
	}
	type padded struct {
		p *int
		a int32
		b bool
	}
	if got, want := unsafe.Sizeof(slot[padded]{}), unsafe.Sizeof(padded{})+8; got != want {
		t.Fatalf("slot[padded] is %d bytes, want %d", got, want)
	}
}

func TestReservedKey(t *testing.T) {
	var tab Table[int]
	tab.Init(4)
	if tab.Get(Reserved) != nil {
		t.Fatal("Get(Reserved) found a value in an empty table")
	}
	if _, ok := tab.Delete(Reserved); ok || tab.Len() != 0 {
		t.Fatalf("Delete(Reserved) = %v, Len %d", ok, tab.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put(Reserved) did not panic")
		}
	}()
	tab.Put(Reserved)
}

// FuzzTable drives a table and a Go map through the same byte-coded
// sequence of puts, gets and deletes and requires them to agree after every
// step. The key space is small and the table starts at 2 or 4 slots, so
// probe chains overlap, wrap past the end of the slot array and grow.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0x10, 0x21, 0x32, 0x43, 0x54, 0x81, 0x92, 0xa3, 0x10, 0x21})
	f.Add([]byte{0, 0x0f, 0x1f, 0x2f, 0x3f, 0x8f, 0x9f, 0xaf, 0xbf, 0x4f, 0x5f, 0xcf})
	// Deletes whose back-shift scan meets a chain that wraps past the end
	// of the slots. Dropping any comparison of k, or the whole wrapped arm,
	// from Delete's move condition fails at least one of these.
	f.Add([]byte{0, 0x0f, 0x37, 0xcf})
	f.Add([]byte{0, 0x31, 0x38, 0x24, 0x43, 0x30, 0xc4})
	f.Add([]byte{0, 0x2e, 0x38, 0x26, 0x43, 0xfe})
	f.Add([]byte{0, 0x25, 0x31, 0xe5})
	f.Add([]byte{0, 0x37, 0x43, 0x38, 0xe8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		var tab Table[entry]
		tab.Init(2 << (ops[0] & 1))
		model := map[uint64]uint64{}
		for step, op := range ops[1:] {
			key := uint64(op & 0x0f)
			if op&0x08 != 0 {
				key = Reserved - 1 - key // keys near the top of the range
			}
			switch op >> 6 {
			case 0, 1: // put, stamping the step into the value
				v, fresh := tab.Put(key)
				_, had := model[key]
				if fresh == had {
					t.Fatalf("step %d: Put(%#x) fresh=%v, model has it: %v", step, key, fresh, had)
				}
				if fresh && *v != (entry{}) {
					t.Fatalf("step %d: fresh value for %#x not zero: %+v", step, key, *v)
				}
				v.sharers = uint64(step)
				model[key] = uint64(step)
			case 2: // get
				v := tab.Get(key)
				want, had := model[key]
				if (v != nil) != had || (had && v.sharers != want) {
					t.Fatalf("step %d: Get(%#x) = %v, model (%d, %v)", step, key, v, want, had)
				}
			case 3: // delete
				v, ok := tab.Delete(key)
				want, had := model[key]
				if ok != had || (had && v.sharers != want) {
					t.Fatalf("step %d: Delete(%#x) = (%+v, %v), model (%d, %v)", step, key, v, ok, want, had)
				}
				delete(model, key)
			}
			if tab.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, tab.Len(), len(model))
			}
			seen := 0
			tab.Each(func(k uint64, v *entry) {
				if want, had := model[k]; !had || v.sharers != want {
					t.Fatalf("step %d: Each visited %#x = %d, model (%d, %v)", step, k, v.sharers, want, had)
				}
				seen++
			})
			if seen != len(model) {
				t.Fatalf("step %d: Each visited %d keys, model has %d", step, seen, len(model))
			}
			for k, want := range model {
				if v := tab.Get(k); v == nil || v.sharers != want {
					t.Fatalf("step %d: key %#x lost: Get = %v, want %d", step, k, v, want)
				}
			}
		}
	})
}
