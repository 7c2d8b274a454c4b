package config

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestKnobRegistryCoversEveryConfigKnob pins the registry to the Config
// struct: every int field of Config (everything but the System enum) must
// have exactly one registry entry, and every registry entry must address a
// distinct field in both Config and Overrides. A knob added to Config
// without a registry entry would be silently unsweepable.
func TestKnobRegistryCoversEveryConfigKnob(t *testing.T) {
	intFields := 0
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type == reflect.TypeOf(int(0)) {
			intFields++
		}
	}
	if got := len(Knobs()); got != intFields {
		t.Fatalf("registry has %d knobs, Config has %d int fields", got, intFields)
	}
	if ot := reflect.TypeOf(Overrides{}); ot.NumField() != intFields {
		t.Fatalf("Overrides has %d fields, Config has %d int knobs", ot.NumField(), intFields)
	}

	var c Config
	var o Overrides
	seenCfg := map[*int]string{}
	seenOv := map[*int]string{}
	for _, k := range Knobs() {
		if prev, dup := seenCfg[k.Field(&c)]; dup {
			t.Fatalf("knobs %s and %s share a Config field", prev, k.Name)
		}
		if prev, dup := seenOv[k.Over(&o)]; dup {
			t.Fatalf("knobs %s and %s share an Overrides field", prev, k.Name)
		}
		seenCfg[k.Field(&c)] = k.Name
		seenOv[k.Over(&o)] = k.Name
	}
}

// TestKnobNamesMatchJSONTags: a knob's registry name is also its JSON wire
// name, so -set flags, ?set= parameters and {"overrides":{...}} bodies all
// speak one vocabulary.
func TestKnobNamesMatchJSONTags(t *testing.T) {
	var o Overrides
	ot := reflect.TypeOf(o)
	tags := map[string]bool{}
	for i := 0; i < ot.NumField(); i++ {
		tag := strings.TrimSuffix(ot.Field(i).Tag.Get("json"), ",omitempty")
		tags[tag] = true
	}
	for _, name := range KnobNames() {
		if !tags[name] {
			t.Errorf("knob %q has no matching Overrides JSON tag", name)
		}
	}
}

// TestKnobOrderIsFieldOrder: the registry lists the knobs in Overrides'
// field order, so system.Spec can write "overrides" by walking the
// registry and still spell it exactly as encoding/json spells the struct.
func TestKnobOrderIsFieldOrder(t *testing.T) {
	var o Overrides
	v := reflect.ValueOf(&o).Elem()
	for i, k := range Knobs() {
		if k.Over(&o) != v.Field(i).Addr().Interface().(*int) {
			t.Fatalf("knob %d (%s) is not Overrides field %d (%s)", i, k.Name, i, v.Type().Field(i).Name)
		}
	}
}

func TestOverridesApplyAndConfigDiff(t *testing.T) {
	var o Overrides
	if err := o.Set("l1d_size", 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("filter_entries", 16); err != nil {
		t.Fatal(err)
	}
	base := ForSystem(HybridReal)
	cfg := base
	o.Apply(&cfg)
	if cfg.L1DSize != 64<<10 || cfg.FilterEntries != 16 {
		t.Fatalf("Apply missed: L1DSize=%d FilterEntries=%d", cfg.L1DSize, cfg.FilterEntries)
	}
	if cfg.Cores != base.Cores {
		t.Fatalf("Apply perturbed an unset knob: Cores=%d", cfg.Cores)
	}
	diff := ConfigDiff(cfg, base)
	want := []KnobValue{{"l1d_size", 64 << 10}, {"filter_entries", 16}}
	if !reflect.DeepEqual(diff, want) {
		t.Fatalf("ConfigDiff = %v, want %v", diff, want)
	}
	// A knob set to its default value is not a difference.
	var od Overrides
	od.Set("cores", base.Cores)
	cfg = base
	od.Apply(&cfg)
	if d := ConfigDiff(cfg, base); len(d) != 0 {
		t.Fatalf("default-valued override diffed: %v", d)
	}
}

func TestOverridesSetRejectsBadInput(t *testing.T) {
	var o Overrides
	if err := o.Set("warp_drive", 1); err == nil || !strings.Contains(err.Error(), "warp_drive") {
		t.Fatalf("unknown knob: err = %v", err)
	}
	if err := o.Set("cores", 0); err == nil {
		t.Fatal("Set accepted 0")
	}
	if err := o.Set("cores", -4); err == nil {
		t.Fatal("Set accepted a negative value")
	}
}

func TestParseOverrides(t *testing.T) {
	o, err := ParseOverrides([]string{"l1d_size=65536", "cores=16", "cores=8"})
	if err != nil {
		t.Fatal(err)
	}
	if o.L1DSize != 65536 || o.Cores != 8 {
		t.Fatalf("parsed %+v, want l1d_size=65536 cores=8 (last assignment wins)", o)
	}
	for _, bad := range []string{"cores", "=4", "cores=abc", "cores=-1", "nope=1"} {
		if _, err := ParseOverrides([]string{bad}); err == nil {
			t.Errorf("ParseOverrides accepted %q", bad)
		}
	}
}

func TestOverridesJSONSparse(t *testing.T) {
	var o Overrides
	o.Set("l1d_size", 65536)
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"l1d_size":65536}` {
		t.Fatalf("wire form %s, want only the set knob", b)
	}
	var got Overrides
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Fatalf("round trip changed Overrides: %+v vs %+v", got, o)
	}
}

func TestOverridesValidate(t *testing.T) {
	var o Overrides
	o.MemLatency = -1
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "mem_latency") {
		t.Fatalf("err = %v, want negative mem_latency rejection", err)
	}
	o = Overrides{}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsDegenerateCapacities pins the Validate gap fix: knobs
// an Overrides can now zero out must be rejected, not wired.
func TestValidateRejectsDegenerateCapacities(t *testing.T) {
	fields := []string{"MSHREntries", "CoreMLP", "IQEntries", "TLBEntries",
		"PrefetchDegree", "PrefetchTableSz", "PrefetchDistance", "MemCyclesPerLn"}
	for _, f := range fields {
		c := Default()
		reflect.ValueOf(&c).Elem().FieldByName(f).SetInt(0)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s = 0", f)
		}
	}
	lat := []string{"L1ILatency", "L1DLatency", "L2Latency", "TLBLatency", "TLBMissLat",
		"LinkLatency", "RouterLatency", "MemLatency", "SPMLatency", "DMALineCycles"}
	for _, f := range lat {
		c := Default()
		reflect.ValueOf(&c).Elem().FieldByName(f).SetInt(-1)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s = -1", f)
		}
		c = Default()
		reflect.ValueOf(&c).Elem().FieldByName(f).SetInt(0)
		if err := c.Validate(); err != nil {
			t.Errorf("Validate rejected %s = 0: %v (zero latency is legal)", f, err)
		}
	}
}

// TestParseValueGrammarSharedWithSet: the -set flag accepts the same value
// spellings as every sweep axis (plain, k/m/g suffixes, integral
// scientific) — one grammar for every surface.
func TestParseValueGrammarSharedWithSet(t *testing.T) {
	ov, err := ParseOverrides([]string{"l1d_size=64k", "mem_latency=1e2"})
	if err != nil {
		t.Fatal(err)
	}
	if ov.L1DSize != 64<<10 || ov.MemLatency != 100 {
		t.Fatalf("suffixed -set values parsed as %+v", ov)
	}
	if _, err := ParseOverrides([]string{"l1d_size=64q"}); err == nil {
		t.Fatal("ParseOverrides accepted a bogus suffix")
	}
}

// valueSeeds spell values in every form ParseValue accepts, and some near
// misses.
var valueSeeds = []string{"4096", "-3", "64k", "2M", "1g", "1e6", "1.5e3", "0x10", "64q", "k", "",
	" 7", "9223372036854775807", "9007199254740993k", "3e9", "-2147483648e0", "NaN", "1e-1"}

// FuzzParseValue: an accepted value re-renders in decimal and re-parses to
// itself, and a k/m/g-suffixed value is its digits times the suffix, never
// a wrapped product.
func FuzzParseValue(f *testing.F) {
	for _, s := range valueSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		if back, err := ParseValue(strconv.Itoa(v)); err != nil || back != v {
			t.Fatalf("%q parses to %d, which re-parses to %d, %v", s, v, back, err)
		}
		if n := len(s); n > 1 {
			shift := map[byte]uint{'k': 10, 'K': 10, 'm': 20, 'M': 20, 'g': 30, 'G': 30}[s[n-1]]
			if base, err := strconv.Atoi(s[:n-1]); err == nil && shift > 0 {
				if want := float64(base) * float64(int64(1)<<shift); float64(v) != want {
					t.Fatalf("%q parses to %d, want %g", s, v, want)
				}
			}
		}
	})
}

// FuzzParseAssignment: an accepted "name=value" re-renders with the value
// in decimal and re-parses to the same name and value.
func FuzzParseAssignment(f *testing.F) {
	for _, s := range []string{"cores=16", " l1d_size = 64k ", "x=1e3", "=3", " =3", "cores", "a=b=1", "cores=-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, v, err := ParseAssignment(s)
		if err != nil {
			return
		}
		r := name + "=" + strconv.Itoa(v)
		if n2, v2, err := ParseAssignment(r); err != nil || n2 != name || v2 != v {
			t.Fatalf("%q parses to (%q, %d), whose rendering %q re-parses to (%q, %d), %v", s, name, v, r, n2, v2, err)
		}
	})
}

// FuzzParseOverrides: newline-separated -set payloads; accepted overrides
// set only positive values, and re-render through List to assignments that
// re-parse to the same Overrides.
func FuzzParseOverrides(f *testing.F) {
	for _, s := range []string{"cores=16\nl1d_size=64k", "cores=8\ncores=4", "mem_latency=1e2", "turbo=1", "cores=0", "cores=4\n", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseOverrides(strings.Split(s, "\n"))
		if err != nil {
			return
		}
		var again []string
		for _, kv := range o.List() {
			again = append(again, kv.Name+"="+strconv.Itoa(kv.Value))
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("%q parses to invalid overrides: %v", s, err)
		}
		if back, err := ParseOverrides(again); err != nil || back != o {
			t.Fatalf("%q parses to %+v, whose rendering %q re-parses to %+v, %v", s, o, again, back, err)
		}
	})
}
