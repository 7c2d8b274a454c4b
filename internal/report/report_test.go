package report

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/system"
	"repro/internal/workloads"
)

func fakeResults(name string, sys config.MemorySystem, cycles uint64) system.Results {
	r := system.Results{
		Benchmark: name,
		System:    sys,
		Cycles:    cycles,
		TotalPkts: cycles / 2,
		Retired:   cycles * 3,
		Energy:    energy.Breakdown{CPUs: 100, Caches: 200, NoC: 50, Others: 25},
	}
	r.PhaseCycles[0] = cycles
	r.NoCPackets[1] = cycles / 4
	r.FilterHitRatio = 0.97
	return r
}

func maps() (names []string, cache, hybrid, ideal map[string]system.Results) {
	names = []string{"CG", "IS"}
	cache = map[string]system.Results{}
	hybrid = map[string]system.Results{}
	ideal = map[string]system.Results{}
	for i, n := range names {
		base := uint64(1000 * (i + 1))
		cache[n] = fakeResults(n, config.CacheBased, base*12/10)
		hybrid[n] = fakeResults(n, config.HybridReal, base)
		ideal[n] = fakeResults(n, config.HybridIdeal, base*95/100)
	}
	return
}

func TestTable1ContainsKeyParams(t *testing.T) {
	var b strings.Builder
	Table1(&b, config.Default())
	out := b.String()
	for _, want := range []string{"64 cores", "SPMDir", "Filter", "FilterDir", "MOESI"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable2ListsAllBenchmarks(t *testing.T) {
	var b strings.Builder
	Table2(&b, workloads.All(workloads.Tiny))
	out := b.String()
	for _, n := range workloads.Names() {
		if !strings.Contains(out, n) {
			t.Errorf("Table2 missing %s", n)
		}
	}
	if !strings.Contains(out, "497") {
		t.Error("Table2 missing SP's 497 refs")
	}
}

func TestFig7ShowsOverheads(t *testing.T) {
	names, _, hybrid, ideal := maps()
	var b strings.Builder
	Fig7(&b, names, hybrid, ideal)
	out := b.String()
	if !strings.Contains(out, "avg") || !strings.Contains(out, "CG") {
		t.Fatalf("Fig7 output:\n%s", out)
	}
	// real/ideal cycles = 1000/950 ≈ 1.053
	if !strings.Contains(out, "1.05") {
		t.Fatalf("Fig7 overhead wrong:\n%s", out)
	}
}

func TestFig8ShowsRatios(t *testing.T) {
	names, _, hybrid, _ := maps()
	var b strings.Builder
	Fig8(&b, names, hybrid)
	if !strings.Contains(b.String(), "97.00") {
		t.Fatalf("Fig8 output:\n%s", b.String())
	}
}

func TestFig9NormalizesAndAverages(t *testing.T) {
	names, cache, hybrid, _ := maps()
	var b strings.Builder
	Fig9(&b, names, cache, hybrid)
	out := b.String()
	if !strings.Contains(out, "average speedup: 1.200x") {
		t.Fatalf("Fig9 average wrong:\n%s", out)
	}
	if !strings.Contains(out, "C") || !strings.Contains(out, "H") {
		t.Fatal("Fig9 missing C/H bars")
	}
}

func TestFig10HasAllCategories(t *testing.T) {
	names, cache, hybrid, _ := maps()
	var b strings.Builder
	Fig10(&b, names, cache, hybrid)
	out := b.String()
	for _, cat := range []string{"Ifetch", "Read", "Write", "WB-Repl", "DMA", "CohProt"} {
		if !strings.Contains(out, cat) {
			t.Errorf("Fig10 missing category %s", cat)
		}
	}
}

func TestFig11HasAllComponents(t *testing.T) {
	names, cache, hybrid, _ := maps()
	var b strings.Builder
	Fig11(&b, names, cache, hybrid)
	out := b.String()
	for _, comp := range []string{"CPUs", "Caches", "NoC", "Others", "SPMs", "CohProt"} {
		if !strings.Contains(out, comp) {
			t.Errorf("Fig11 missing component %s", comp)
		}
	}
}

func TestJSONSink(t *testing.T) {
	_, cache, hybrid, _ := maps()
	var b strings.Builder
	if err := JSON(&b, []system.Results{cache["CG"], hybrid["CG"]}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Memory systems must marshal by name, not enum value.
	for _, want := range []string{`"cache"`, `"hybrid"`, `"Benchmark": "CG"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}

func TestWriteResultsDispatch(t *testing.T) {
	_, cache, _, _ := maps()
	rs := []system.Results{cache["CG"]}
	var csvOut, jsonOut strings.Builder
	if err := WriteResults(&csvOut, "csv", rs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "benchmark,system,") {
		t.Errorf("csv sink wrote %q", csvOut.String())
	}
	if err := WriteResults(&jsonOut, "json", rs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(jsonOut.String()), "[") {
		t.Errorf("json sink wrote %q", jsonOut.String())
	}
	if err := WriteResults(&csvOut, "xml", rs); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestJSONLinesSink(t *testing.T) {
	_, cache, hybrid, _ := maps()
	var b strings.Builder
	if err := WriteResults(&b, "jsonl", []system.Results{cache["CG"], hybrid["CG"]}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl wrote %d lines for 2 results:\n%s", len(lines), b.String())
	}
	for _, l := range lines {
		var r system.Results
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q is not standalone JSON: %v", l, err)
		}
		if r.Benchmark != "CG" {
			t.Fatalf("line round-tripped to %+v, want CG run", r)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteResultsPropagatesWriteErrors(t *testing.T) {
	_, cache, _, _ := maps()
	rs := []system.Results{cache["CG"]}
	for _, format := range Formats() {
		if err := WriteResults(failingWriter{}, format, rs); err == nil {
			t.Errorf("%s sink swallowed the write error", format)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, cache, hybrid, _ := maps()
	var b strings.Builder
	CSV(&b, []system.Results{cache["CG"], hybrid["CG"]})
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2", len(lines))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("CSV header %d fields, row %d", len(header), len(row))
	}
	if row[0] != "CG" || row[1] != "cache" {
		t.Fatalf("CSV row = %v", row[:2])
	}
}

// sweepFixtures builds a two-point filter sweep with one shared override —
// the shape SweepCSV/SweepJSON must render with per-knob columns.
func sweepFixtures() ([]system.Spec, []system.Results) {
	var specs []system.Spec
	var results []system.Results
	for i, f := range []int{16, 32} {
		s := system.Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}}
		s.Overrides.FilterEntries = f
		s.Overrides.MemLatency = 200
		specs = append(specs, s)
		results = append(results, fakeResults("IS", config.HybridReal, uint64(1000*(i+1))))
	}
	return specs, results
}

// TestSweepCSVPerKnobColumns: every swept knob becomes a named column (in
// registry order), every cell a concrete resolved value.
func TestSweepCSVPerKnobColumns(t *testing.T) {
	specs, results := sweepFixtures()
	var buf strings.Builder
	if err := SweepCSV(&buf, specs, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	// Registry order; the cores change drags its derived adjustments (mesh
	// re-dimensioning, controller cap) into the diff, so they get columns
	// too — the table names the machine that actually ran.
	wantPrefix := []string{"benchmark", "system", "scale", "cores", "mesh_width", "mesh_height",
		"mem_controllers", "mem_latency", "filter_entries", "cycles"}
	for i, w := range wantPrefix {
		if header[i] != w {
			t.Fatalf("header[%d] = %q, want %q (full header %v)", i, header[i], w, header)
		}
	}
	row := strings.Split(lines[1], ",")
	if got, want := strings.Join(row[:9], ","), "IS,hybrid,tiny,4,2,2,4,200,16"; got != want {
		t.Fatalf("row 1 = %v, want %v", got, want)
	}
	row2 := strings.Split(lines[2], ",")
	if row2[8] != "32" {
		t.Fatalf("row 2 filter_entries = %q, want 32", row2[8])
	}
	if len(row) != len(header) || len(row2) != len(header) {
		t.Fatal("ragged CSV")
	}
}

func TestSweepJSONCarriesKnobs(t *testing.T) {
	specs, results := sweepFixtures()
	var buf strings.Builder
	if err := SweepJSON(&buf, specs, results); err != nil {
		t.Fatal(err)
	}
	var rows []SweepRow
	if err := json.Unmarshal([]byte(buf.String()), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Knobs["filter_entries"] != 16 || rows[1].Knobs["filter_entries"] != 32 {
		t.Fatalf("knob maps wrong: %v / %v", rows[0].Knobs, rows[1].Knobs)
	}
	if rows[0].Knobs["mem_latency"] != 200 {
		t.Fatalf("shared override missing: %v", rows[0].Knobs)
	}
	if rows[0].Results.Cycles != 1000 {
		t.Fatalf("results lost: %+v", rows[0].Results)
	}
}

func TestSweepSinksRejectLengthMismatch(t *testing.T) {
	specs, results := sweepFixtures()
	var buf strings.Builder
	if err := SweepCSV(&buf, specs, results[:1]); err == nil {
		t.Fatal("SweepCSV accepted mismatched lengths")
	}
	if err := SweepJSON(&buf, specs[:1], results); err == nil {
		t.Fatal("SweepJSON accepted mismatched lengths")
	}
}

// TestSweepCSVPerParamColumns: every swept workload parameter becomes a
// named column between the scale and knob columns; a run that leaves the
// parameter at its default renders the resolved default value, and the
// workload's fixed parameters appear too.
func TestSweepCSVPerParamColumns(t *testing.T) {
	mk := func(params string) system.Spec {
		return system.Spec{System: config.HybridReal, Benchmark: "stream",
			Scale: workloads.Tiny, Params: params, Overrides: config.Overrides{Cores: 4}}
	}
	specs := []system.Spec{mk("streams=2"), mk("stride=128,streams=2")}
	results := make([]system.Results, len(specs))
	var buf strings.Builder
	if err := SweepCSV(&buf, specs, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	header := strings.Split(lines[0], ",")
	wantPrefix := []string{"benchmark", "system", "scale", "streams", "stride", "cores"}
	for i, w := range wantPrefix {
		if header[i] != w {
			t.Fatalf("header[%d] = %q, want %q (full header %v)", i, header[i], w, header)
		}
	}
	row1 := strings.Split(lines[1], ",")
	row2 := strings.Split(lines[2], ",")
	// Row 1 left stride at its default: the cell shows the resolved 8.
	if got, want := strings.Join(row1[:6], ","), "stream,hybrid,tiny,2,8,4"; got != want {
		t.Fatalf("row 1 = %v, want %v", got, want)
	}
	if got, want := strings.Join(row2[:6], ","), "stream,hybrid,tiny,2,128,4"; got != want {
		t.Fatalf("row 2 = %v, want %v", got, want)
	}
}

// TestSweepJSONCarriesParams: the JSON sink reports each row's non-default
// workload parameters explicitly.
func TestSweepJSONCarriesParams(t *testing.T) {
	specs := []system.Spec{
		{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Params: "stride=128", Overrides: config.Overrides{Cores: 4}},
		{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}},
	}
	results := make([]system.Results, len(specs))
	var buf strings.Builder
	if err := SweepJSON(&buf, specs, results); err != nil {
		t.Fatal(err)
	}
	var rows []SweepRow
	if err := json.Unmarshal([]byte(buf.String()), &rows); err != nil {
		t.Fatal(err)
	}
	if rows[0].Params["stride"] != 128 {
		t.Fatalf("rows[0].Params = %v, want stride=128", rows[0].Params)
	}
	if len(rows[1].Params) != 0 {
		t.Fatalf("rows[1].Params = %v, want empty (all defaults)", rows[1].Params)
	}
}

// TestWorkloadCatalogListsEveryEntry: the -workloads listing names every
// registry entry and every declared parameter.
func TestWorkloadCatalogListsEveryEntry(t *testing.T) {
	var buf strings.Builder
	WorkloadCatalog(&buf)
	out := buf.String()
	for _, e := range workloads.Entries() {
		if !strings.Contains(out, e.Name) {
			t.Errorf("catalog missing workload %s", e.Name)
		}
		for _, p := range e.Params {
			if !strings.Contains(out, p.Name) {
				t.Errorf("catalog missing %s param %s", e.Name, p.Name)
			}
		}
	}
}
