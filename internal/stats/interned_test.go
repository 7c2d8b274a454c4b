package stats

import (
	"reflect"
	"testing"
)

// TestCountersString pins the rendered layout of a counter set: the "name:"
// header, then touched counters only, sorted, as "  %-32s %12d". The golden
// stats dump is built from this layout.
func TestCountersString(t *testing.T) {
	r := NewReg()
	a := r.Handle("l1d.accesses")
	b := r.Handle("l2.misses")
	c := r.Handle("never.touched")
	if got := r.Handle("l1d.accesses"); got != a {
		t.Fatalf("re-registering returned %d, want %d", got, a)
	}

	cs := r.NewCounters("core0")
	for i := 0; i < 5; i++ {
		cs.Inc(a)
	}
	cs.Add(b, 7)
	_ = c

	if cs.Val(a) != 5 || cs.Get("l1d.accesses") != 5 {
		t.Fatalf("Val/Get mismatch: %d %d", cs.Val(a), cs.Get("l1d.accesses"))
	}
	if cs.Get("never.touched") != 0 || cs.Get("unregistered") != 0 {
		t.Fatal("untouched/unregistered counters must read 0")
	}
	if want := []string{"l1d.accesses", "l2.misses"}; !reflect.DeepEqual(cs.Keys(), want) {
		t.Fatalf("Keys = %v, want %v", cs.Keys(), want)
	}
	const want = "core0:\n" +
		"  l1d.accesses                                5\n" +
		"  l2.misses                                   7\n"
	if cs.String() != want {
		t.Fatalf("String mismatch:\n%q\nwant\n%q", cs.String(), want)
	}
}

func BenchmarkCountersInc(b *testing.B) {
	r := NewReg()
	h := r.Handle("l1d.accesses")
	cs := r.NewCounters("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs.Inc(h)
	}
	if cs.Val(h) == 0 {
		b.Fatal("no increments")
	}
}
