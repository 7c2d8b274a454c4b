//go:build !race

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// The hit path's allocation caps: each is the count measured with Go 1.24
// plus about a quarter for toolchain drift, and each sits below what the
// indented encoder, the per-response json.Decoder and the reflection Spec
// codec cost (105 and 84). The race detector's instrumentation allocates,
// so these build without it.
const (
	cachedSubmitAllocs = 72 // measured 58
	clientDecodeAllocs = 67 // measured 54
)

// TestCachedSubmitAllocs pins what the daemon allocates to answer a cached
// POST /v1/runs?wait=true: decode, cache lookup, and one compact encode.
func TestCachedSubmitAllocs(t *testing.T) {
	h := warmHandler(t)
	n := testing.AllocsPerRun(200, func() { postCached(h) })
	t.Logf("cached POST: %.0f allocs", n)
	if n > cachedSubmitAllocs {
		t.Fatalf("a cached POST allocates %.0f times, want <= %d", n, cachedSubmitAllocs)
	}
}

// replay is a transport that answers every request with one recorded body.
type replay []byte

func (b replay) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(b))}, nil
}

// TestClientDecodeAllocs pins what Client.Run allocates to read a cached
// answer: the recorded response, compacted as the daemon now sends it.
func TestClientDecodeAllocs(t *testing.T) {
	indented, err := os.ReadFile("testdata/runs_cached_indented.json")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.Compact(&body, indented); err != nil {
		t.Fatal(err)
	}
	body.WriteByte('\n')
	c := &Client{Base: "http://replay", HTTP: &http.Client{Transport: replay(body.Bytes())}}
	spec := system.Spec{System: config.HybridReal, Benchmark: "EP", Scale: workloads.Tiny,
		Overrides: config.Overrides{Cores: 4, MemLatency: 96}}
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		if rec, err := c.Run(ctx, spec, 0); err != nil || rec.Spec != spec {
			t.Fatalf("Run = %+v, %v", rec, err)
		}
	})
	t.Logf("client decode: %.0f allocs", n)
	if n > clientDecodeAllocs {
		t.Fatalf("decoding a cached answer allocates %.0f times, want <= %d", n, clientDecodeAllocs)
	}
}
