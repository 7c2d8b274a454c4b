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

// TestSubmitParamsBearingSpec pins the workload-parameter wire path: a JSON
// body with {"params":{...}} is accepted, runs under the canonical content
// hash, the explicit-default spelling of the same run is a cache hit, and a
// distinct parameter value mints a distinct cache entry.
func TestSubmitParamsBearingSpec(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	wide := system.Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny,
		Params: "stride=128", Overrides: config.Overrides{Cores: 4}}

	first, err := client.Run(context.Background(), wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Results == nil || first.Results.Cycles == 0 {
		t.Fatalf("first run = %+v, want a fresh non-zero run", first)
	}
	if first.Key != wide.Hash() {
		t.Fatalf("run keyed %s, want the canonical hash %s", first.Key, wide.Hash())
	}

	// Default-param and explicit-default spellings share one address.
	plain := system.Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Overrides: config.Overrides{Cores: 4}}
	if _, err := client.Run(context.Background(), plain, 0); err != nil {
		t.Fatal(err)
	}
	explicit := plain
	explicit.Params = "stride=8"
	second, err := client.Run(context.Background(), explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("the explicit-default spelling of the same run missed the cache")
	}
	if second.Key != plain.Hash() {
		t.Fatalf("equivalent spellings keyed apart: %s vs %s", second.Key, plain.Hash())
	}
	if second.Key == first.Key {
		t.Fatal("distinct stride values share one cache entry")
	}
}

// TestSubmitRejectsBadParams: undeclared parameters, out-of-range values
// and bad wsweep axes fail the request with 400 before anything is queued.
func TestSubmitRejectsBadParams(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"warp":1}}}`,
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"stride":4}}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","params":{"n":10}}}`,
		`{"matrix":{"benchmarks":["stream"],"scale":"tiny","cores":4,"wsweep":[{"name":"warp","values":[1]}]}}`,
		`{"matrix":{"benchmarks":["stream"],"scale":"tiny","cores":4,"wsweep":[{"name":"stride","values":[]}]}}`,
		`{"matrix":{"benchmarks":["stream:warp=1"],"scale":"tiny","cores":4}}`,
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

// TestSweepWorkloadQueryParams: GET /v1/sweep understands repeatable
// ?workload= (parameterized spellings) and ?wsweep= axes, distinct axis
// values land distinct cache keys, and the typed Client emits the same
// query — addressing the same cache entries on a second pass.
func TestSweepWorkloadQueryParams(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})

	resp, err := http.Get(client.Base + "/v1/sweep?workload=stream:streams=2&systems=hybrid&scale=tiny&cores=4&wsweep=stride=8,128")
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
			Spec    system.Spec     `json:"spec"`
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
		if line.Spec.Benchmark != "stream" {
			t.Fatalf("run %s benchmark %q", line.Key, line.Spec.Benchmark)
		}
		keys = append(keys, line.Key)
	}
	if len(keys) != 2 {
		t.Fatalf("streamed %d runs, want 2", len(keys))
	}
	if keys[0] == keys[1] {
		t.Fatal("distinct stride values share one cache key")
	}

	m := Matrix{
		Benchmarks: []string{"stream:streams=2"},
		Systems:    []string{"hybrid"},
		Scale:      "tiny",
		Cores:      4,
		WSweep:     []runner.ParamAxis{{Name: "stride", Values: []int{8, 128}}},
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

	// A mixed plain + parameterized benchmark list streams in the
	// caller's order: the client must not let the ?workload= form reorder
	// entries behind the caller's back.
	mixed := Matrix{
		Benchmarks: []string{"stream:stride=128", "CG"},
		Systems:    []string{"hybrid"},
		Scale:      "tiny",
		Cores:      4,
	}
	var order []string
	if _, err := client.Sweep(context.Background(), mixed, 0, func(rec RunRecord) error {
		order = append(order, rec.Spec.Benchmark)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "stream" || order[1] != "CG" {
		t.Fatalf("mixed matrix streamed as %v, want [stream CG]", order)
	}

	// A bad ?wsweep= axis dies with 400 before queueing anything.
	resp, err = http.Get(client.Base + "/v1/sweep?workload=stream&scale=tiny&cores=4&wsweep=warp=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wsweep axis: status %d, want 400", resp.StatusCode)
	}
}
