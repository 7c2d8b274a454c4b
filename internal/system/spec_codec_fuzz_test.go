package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// reflectSpecJSON is the reflection wire form the Spec codec replaced: the
// oracle FuzzSpecJSON checks the hand-written codec against.
type reflectSpecJSON struct {
	System        config.MemorySystem `json:"system"`
	Benchmark     string              `json:"benchmark"`
	Scale         workloads.Scale     `json:"scale"`
	Params        map[string]int      `json:"params,omitempty"`
	Overrides     *config.Overrides   `json:"overrides,omitempty"`
	Cores         int                 `json:"cores,omitempty"`
	Seed          uint64              `json:"seed,omitempty"`
	FilterEntries int                 `json:"filter_entries,omitempty"`
	MaxEvents     uint64              `json:"max_events,omitempty"`
}

// reflectMarshal is the reflection encoder: json.Marshal of the wire struct.
func reflectMarshal(s Spec) ([]byte, error) {
	sj := reflectSpecJSON{
		System:    s.System,
		Benchmark: s.Benchmark,
		Scale:     s.Scale,
		Seed:      s.Seed,
		MaxEvents: s.MaxEvents,
	}
	if !s.Overrides.IsZero() {
		ov := s.Overrides
		sj.Overrides = &ov
	}
	if s.Params != "" {
		p, err := workloads.ParseParams(s.Params)
		if err != nil {
			return nil, fmt.Errorf("system: bad workload params %q: %w", s.Params, err)
		}
		sj.Params = p
	}
	return json.Marshal(sj)
}

// reflectUnmarshal is the reflection decoder: a strict decode into a fresh
// wire struct, the alias rules, then Validate.
func reflectUnmarshal(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sj reflectSpecJSON
	if err := dec.Decode(&sj); err != nil {
		return Spec{}, err
	}
	s := Spec{System: sj.System, Benchmark: sj.Benchmark, Scale: sj.Scale, Seed: sj.Seed, MaxEvents: sj.MaxEvents}
	if sj.Overrides != nil {
		s.Overrides = *sj.Overrides
	}
	for _, alias := range [...]struct {
		v  int
		ov *int
	}{
		{sj.Cores, &s.Overrides.Cores},
		{sj.FilterEntries, &s.Overrides.FilterEntries},
	} {
		switch {
		case alias.v < 0:
			return Spec{}, fmt.Errorf("negative alias %d", alias.v)
		case alias.v > 0 && *alias.ov > 0 && alias.v != *alias.ov:
			return Spec{}, fmt.Errorf("alias %d conflicts with %d", alias.v, *alias.ov)
		case alias.v > 0:
			*alias.ov = alias.v
		}
	}
	s.Params = workloads.FormatParams(sj.Benchmark, sj.Params)
	return s, s.Validate()
}

// FuzzSpecJSON checks the hand-written Spec codec against the reflection
// codec it replaced: both accept and reject the same bodies, decode an
// accepted body to the same Spec, and encode it to the same bytes. The
// input is also used raw as a benchmark name, as a params payload and as
// signed knob values, so the string escaping, the params encoding and the
// overrides walk meet arbitrary input.
func FuzzSpecJSON(f *testing.F) {
	for _, body := range []string{
		`{"system":"hybrid","benchmark":"CG","scale":"tiny","cores":4}`,
		`{"system":"cache","benchmark":"EP","scale":"small","seed":7,"max_events":1000}`,
		`{"system":"hybrid-ideal","benchmark":"IS","scale":"tiny","overrides":{"cores":8,"filter_entries":16,"l1d_size":65536}}`,
		`{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"stride":128},"overrides":{"mem_latency":96}}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","cores":8,"overrides":{"cores":16}}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","filter_entries":-1}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","overrides":{"cores":4},"overrides":null}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","overrides":{"cores":4},"overrides":null,"overrides":{"l2_latency":9}}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","overrides":{"cores":4},"Overrides":{"L2_LATENCY":9}}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","overrides":{"turbo":1}}`,
		`{"system":"hybrid","benchmark":"IS","scale":"tiny","overrides":{"cores":-4}}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","turbo":true}`,
		`{"system":"quantum","benchmark":"EP","scale":"tiny"}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny"} trailing`,
		` {"system":"cache","benchmark":"EP","scale":"tiny"}{"seed":1}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","ſeed":3,"overrides":{"coreſ":8}}`,
		"{\"system\":\"cache\",\"benchmark\":\"EP\",\"scale\":\"tiny\",\"overrides\":{\"lin\u212a_latency\":9}}",
		`{"system":"cache","benchmark":"EP","scale":"tiny","\u0073eed":3,"overrides":{"\u0063ores":4}}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","over\"rides":{}}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","overrides":[{"turbo":1}]}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","params":{"turbo":1,"stride":{"x":1}}}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"cores":4},"cores":"4"}`,
		`{"system":"cache","benchmark":"EP\"}`,
		`{"system":"cache","benchmark":"EP","scale":"tiny"`,
		`[{"system":"cache","benchmark":"EP","scale":"tiny"}]`,
		`{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"cores":4,}}`,
		`null`,
		"a<b>&\"\u2028\u00e9", `<`, `>`, `&`, "\xff", "\x7f\t",
		`stride=128,footprint=4k`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Spec
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := reflectUnmarshal(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec error %v, reflection error %v", data, gotErr, wantErr)
		}
		knobs := Spec{Benchmark: "IS"}
		for i, k := range config.Knobs() {
			if i < len(data) {
				*k.Over(&knobs.Overrides) = int(int8(data[i]))
			}
		}
		specs := []Spec{{Benchmark: string(data)}, {Params: string(data)}, knobs}
		if gotErr == nil {
			if got != want {
				t.Fatalf("%q decodes to\n %+v\nwant\n %+v", data, got, want)
			}
			specs = append(specs, got)
		}
		for _, s := range specs {
			gb, gerr := s.MarshalJSON()
			wb, werr := reflectMarshal(s)
			if (gerr == nil) != (werr == nil) || !bytes.Equal(gb, wb) {
				t.Fatalf("%+v encodes to\n %s (%v)\nwant\n %s (%v)", s, gb, gerr, wb, werr)
			}
		}
	})
}
