package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet("l1")
	s.Inc("hits")
	s.Add("hits", 4)
	s.Add("misses", 2)
	if got := s.Get("hits"); got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if got := s.Get("misses"); got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
	if got := s.Get("absent"); got != 0 {
		t.Fatalf("absent = %d, want 0", got)
	}
}

func TestSetKeysSorted(t *testing.T) {
	s := NewSet("x")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		s.Inc(k)
	}
	keys := s.Keys()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet("noc")
	s.Add("pkts", 12)
	out := s.String()
	if !strings.Contains(out, "noc:") || !strings.Contains(out, "pkts") {
		t.Fatalf("String() = %q", out)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(0, 0); got != 0 {
		t.Fatalf("Ratio(0,0) = %v", got)
	}
	if got := Ratio(3, 1); got != 0.75 {
		t.Fatalf("Ratio(3,1) = %v", got)
	}
	if got := Ratio(0, 5); got != 0 {
		t.Fatalf("Ratio(0,5) = %v", got)
	}
}

func TestDistObserve(t *testing.T) {
	var d Dist
	for _, v := range []uint64{5, 1, 9} {
		d.Observe(v)
	}
	if d.Count != 3 || d.Min != 1 || d.Max != 9 || d.Sum != 15 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Mean() != 5 {
		t.Fatalf("Mean = %v", d.Mean())
	}
}

func TestDistEmptyMean(t *testing.T) {
	var d Dist
	if d.Mean() != 0 {
		t.Fatalf("empty Mean = %v", d.Mean())
	}
}

func TestDistMerge(t *testing.T) {
	var a, b Dist
	a.Observe(2)
	a.Observe(4)
	b.Observe(10)
	a.Merge(b)
	if a.Count != 3 || a.Min != 2 || a.Max != 10 || a.Sum != 16 {
		t.Fatalf("merged = %+v", a)
	}
	var empty Dist
	a.Merge(empty)
	if a.Count != 3 {
		t.Fatalf("merge empty changed count: %+v", a)
	}
	var c Dist
	c.Merge(a)
	if c != a {
		t.Fatalf("merge into empty = %+v, want %+v", c, a)
	}
}

// Property: the counters of a Set sum to the total of all added values
// regardless of key distribution.
func TestSetTotalProperty(t *testing.T) {
	prop := func(keys []uint8, vals []uint16) bool {
		s := NewSet("p")
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		var want uint64
		for i := 0; i < n; i++ {
			s.Add(string(rune('a'+keys[i]%16)), uint64(vals[i]))
			want += uint64(vals[i])
		}
		var got uint64
		for _, k := range s.Keys() {
			got += s.Get(k)
		}
		return got == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dist min <= mean <= max for any non-empty sample set.
func TestDistBoundsProperty(t *testing.T) {
	prop := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var d Dist
		for _, v := range vals {
			d.Observe(uint64(v))
		}
		m := d.Mean()
		return float64(d.Min) <= m+1e-9 && m <= float64(d.Max)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
