package workloads

import (
	"reflect"
	"testing"
)

// FuzzParseWorkload feeds arbitrary -workload / ?workload= spellings
// through ParseWorkload. No spelling may panic, and an accepted one must
// survive FormatWorkload → ParseWorkload with the same name and params, so
// every driver that re-renders a parsed spelling names the same workload.
func FuzzParseWorkload(f *testing.F) {
	for _, s := range []string{
		"CG", "stream", "stream:stride=128", "stream: stride = 64k ,streams=4",
		"ptrchase:hot_pct=50", "gups:table=1e6", "tree:fanin=4", "nope", "",
		":", "stream:", "stream:stride", "stream:=3", "stream:stride=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, params, err := ParseWorkload(s)
		if err != nil {
			return
		}
		spelled := FormatWorkload(name, params)
		name2, params2, err := ParseWorkload(spelled)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, spelled, err)
		}
		if name2 != name || !reflect.DeepEqual(params2, params) {
			t.Fatalf("%q -> %q -> (%s, %v), want (%s, %v)", s, spelled, name2, params2, name, params)
		}
	})
}
