package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/system"
)

// FuzzSubmitRequest feeds arbitrary POST /v1/runs bodies through the
// handler's decoder (body cap, unknown fields rejected) and resolve. No
// body may panic; every Spec a body resolves to must validate, and its
// Hash — the run's cache address — must survive a JSON round trip.
func FuzzSubmitRequest(f *testing.F) {
	// The bodies the CI smoke and cluster jobs post, a matrix, and the
	// top-level cores/filter_entries aliases agreeing and conflicting with
	// their overrides twins.
	for _, body := range []string{
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","cores":4}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","cores":4,"overrides":{"l1d_size":65536}}}`,
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","cores":4,"params":{"stride":128}}}`,
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","cores":4,"params":{"stride":256}}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","cores":4},"telemetry":{"interval":1000}}`,
		`{"spec":{"system":"hybrid","benchmark":"gups","scale":"tiny","cores":4,"overrides":{"filter_entries":4}}}`,
		`{"specs":[{"system":"hybrid","benchmark":"CG","scale":"tiny","cores":4}]}`,
		`{"matrix":{"benchmarks":["EP","stream:stride=128"],"systems":["cache","ideal"],"scale":"tiny","cores":4,` +
			`"sweep":[{"name":"filter_entries","values":[8,16]}]}}`,
		`{"spec":{"system":"hybrid","benchmark":"IS","scale":"tiny","cores":8,"filter_entries":16,` +
			`"overrides":{"cores":8,"filter_entries":16}}}`,
		`{"spec":{"system":"hybrid","benchmark":"IS","scale":"tiny","cores":8,"filter_entries":4,` +
			`"overrides":{"cores":16,"filter_entries":16}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		var req SubmitRequest
		if err := decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		specs, err := req.resolve()
		if err != nil {
			return
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("resolved spec %+v does not validate: %v", sp, err)
			}
			b, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("marshal %+v: %v", sp, err)
			}
			var back system.Spec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", b, err)
			}
			if back.Hash() != sp.Hash() {
				t.Fatalf("hash moved across a round trip: %s -> %s (%s)", sp.Hash(), back.Hash(), b)
			}
		}
	})
}
