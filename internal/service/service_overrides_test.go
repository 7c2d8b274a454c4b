package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestSubmitOverridesBearingSpec pins the tentpole wire path: a JSON body
// with {"overrides":{...}} is accepted, runs under the v2 content hash, and
// the same run spelled with the top-level "cores" wire alias is a cache hit.
func TestSubmitOverridesBearingSpec(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	modern := system.Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny}
	modern.Overrides.Cores = 4
	modern.Overrides.L1DSize = 16 << 10

	first, err := client.Run(context.Background(), modern, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Results == nil || first.Results.Cycles == 0 {
		t.Fatalf("first run = %+v, want a fresh non-zero run", first)
	}
	if first.Key != modern.Hash() {
		t.Fatalf("run keyed %s, want the canonical v2 hash %s", first.Key, modern.Hash())
	}

	aliased := `{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","cores":4,"overrides":{"l1d_size":16384}}}`
	resp, err := http.Post(client.Base+"/v1/runs?wait=true", "application/json", strings.NewReader(aliased))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || len(sr.Runs) != 1 {
		t.Fatalf("alias submission: status %d, %v, %+v", resp.StatusCode, err, sr)
	}
	second := sr.Runs[0]
	if !second.Cached {
		t.Fatal("the cores-alias spelling of the same run missed the cache")
	}
	if second.Key != first.Key {
		t.Fatalf("equivalent spellings keyed apart: %s vs %s", second.Key, first.Key)
	}
}

// TestSubmitRejectsBadOverrides: unknown knobs and negative values fail the
// request with 400 before anything is queued.
func TestSubmitRejectsBadOverrides(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"warp_drive":1}}}`,
		`{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"mem_latency":-5}}}`,
		`{"matrix":{"scale":"tiny","cores":4,"sweep":[{"name":"warp_drive","values":[1]}]}}`,
		`{"matrix":{"scale":"tiny","cores":4,"sweep":[{"name":"l1d_size","values":[]}]}}`,
	} {
		resp, err := http.Post(client.Base+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestMatrixWithSweepAxes: a matrix submission with overrides and sweep
// axes enumerates the cross product server-side.
func TestMatrixWithSweepAxes(t *testing.T) {
	var ov config.Overrides
	ov.Set("mem_latency", 150)
	m := Matrix{
		Benchmarks: []string{"EP"},
		Systems:    []string{"cache"},
		Scale:      "tiny",
		Cores:      4,
		Overrides:  &ov,
		Sweep:      []runner.KnobAxis{{Name: "l1d_size", Values: []int{16 << 10, 32 << 10}}},
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("enumerated %d specs, want 2", len(specs))
	}
	for i, s := range specs {
		if s.Overrides.MemLatency != 150 {
			t.Fatalf("specs[%d] lost the fixed override: %+v", i, s.Overrides)
		}
	}
	if specs[0].Overrides.L1DSize != 16<<10 || specs[1].Overrides.L1DSize != 32<<10 {
		t.Fatalf("axis values wrong: %+v / %+v", specs[0].Overrides, specs[1].Overrides)
	}

	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	recs, err := client.Submit(context.Background(), SubmitRequest{Matrix: &m}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("daemon returned %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Status != "done" || r.Results == nil {
			t.Fatalf("record %s: %s (%s)", r.Key, r.Status, r.Error)
		}
	}
}

// TestSweepQueryParams: GET /v1/sweep understands repeatable ?set= and
// ?sweep= parameters, and the typed Client emits them.
func TestSweepQueryParams(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})

	// Raw query-parameter form.
	resp, err := http.Get(client.Base + "/v1/sweep?benchmarks=EP&systems=cache&scale=tiny&cores=4&set=mem_latency=150&sweep=l1d_size=16384,32768")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var keys []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Key     string          `json:"key"`
			Status  string          `json:"status"`
			Summary *map[string]any `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %s: %v", sc.Bytes(), err)
		}
		if line.Summary != nil {
			continue
		}
		if line.Status != "done" {
			t.Fatalf("run %s status %s", line.Key, line.Status)
		}
		keys = append(keys, line.Key)
	}
	if len(keys) != 2 {
		t.Fatalf("streamed %d runs, want 2", len(keys))
	}

	// Typed-client form must address the same runs (cache hits now).
	var ov config.Overrides
	ov.Set("mem_latency", 150)
	m := Matrix{
		Benchmarks: []string{"EP"},
		Systems:    []string{"cache"},
		Scale:      "tiny",
		Cores:      4,
		Overrides:  &ov,
		Sweep:      []runner.KnobAxis{{Name: "l1d_size", Values: []int{16384, 32768}}},
	}
	var clientKeys []string
	sum, err := client.Sweep(context.Background(), m, 0, func(rec RunRecord) error {
		if !rec.Cached {
			t.Errorf("run %s not served from cache on the second pass", rec.Key)
		}
		clientKeys = append(clientKeys, rec.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 || len(clientKeys) != 2 {
		t.Fatalf("client sweep: %d keys, %d failed", len(clientKeys), sum.Failed)
	}
	for i := range keys {
		if keys[i] != clientKeys[i] {
			t.Fatalf("query and typed client addressed different runs:\n%v\n%v", keys, clientKeys)
		}
	}
}

// TestGetRunByV2Hash: a poll URL carrying the v2 hash finds the run after
// it completed, including through the cache-only path.
func TestGetRunByV2Hash(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	spec := system.Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny}
	spec.Overrides.Cores = 4
	if _, err := client.Run(context.Background(), spec, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := client.Get(context.Background(), spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || rec.Results == nil {
		t.Fatalf("polled record = %+v, want done with results", rec)
	}
	if rec.Spec.Overrides.Cores != 4 {
		t.Fatalf("polled Spec lost its overrides: %+v", rec.Spec)
	}
}
