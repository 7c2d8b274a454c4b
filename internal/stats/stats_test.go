package stats

import (
	"testing"
	"testing/quick"
)

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
