package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/planner"
	"repro/internal/system"
	"repro/internal/telemetry"
)

// Client is a thin typed wrapper over the daemon's HTTP API, shared by the
// hybridsimd client mode, examples, and CI smoke tests.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:8080".
	Base string

	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client

	// Retries bounds automatic re-issue after a load shed (429) or
	// transient unavailability (503); zero means fail on the first such
	// answer. Every request path retries — submissions, sweeps, plans, and
	// the GET endpoints — so a plan or sweep survives a busy fleet member.
	// Each retry waits the longer of an exponential backoff and the
	// server's Retry-After hint (see doRetry).
	Retries int

	// sleep overrides the retry delay (tests); nil means a context-aware
	// real sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string, q url.Values) string {
	u := strings.TrimRight(c.Base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// apiError decodes the daemon's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("service: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("service: %s: %s", resp.Status, bytes.TrimSpace(body))
}

// Retry pacing: the exponential backoff starts at retryBackoff and is capped
// at maxRetryBackoff; a longer Retry-After hint still wins.
const (
	retryBackoff    = 100 * time.Millisecond
	maxRetryBackoff = 5 * time.Second
)

// doRetry issues mk()'s request, retrying shed (429) and unavailable (503)
// answers up to c.Retries times. mk builds a fresh request per attempt so
// bodies replay. Each delay is the longer of the capped exponential backoff
// and the server's Retry-After hint; any other response (or a transport
// error) returns immediately. It is the daemon's only retry loop: fleet
// forwards go through a Client too.
func (c *Client) doRetry(ctx context.Context, mk func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return nil, err
		}
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= c.Retries {
			return resp, nil
		}
		delay := min(retryBackoff<<min(attempt, 16), maxRetryBackoff)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			delay = max(delay, time.Duration(secs)*time.Second)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if err := c.pause(ctx, delay); err != nil {
			return nil, err
		}
	}
}

// pause waits d or until ctx expires, through the test hook when set.
func (c *Client) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) getJSON(ctx context.Context, path string, q url.Values, out any) error {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url(path, q), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return readJSON(resp.Body, out)
}

// readJSON reads a whole response body into a pooled buffer and decodes it
// in one json.Unmarshal, which copies out everything it keeps.
func readJSON(r io.Reader, out any) error {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// Submit posts a submission and returns one record per run. With wait, the
// call blocks until the daemon reports every run complete (or timeout, if
// nonzero, expires — the returned records then carry pending statuses).
func (c *Client) Submit(ctx context.Context, req SubmitRequest, wait bool, timeout time.Duration) ([]RunRecord, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	q := url.Values{}
	if wait {
		q.Set("wait", "true")
	}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
	}
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/runs", q), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return hreq, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var sr SubmitResponse
	if err := readJSON(resp.Body, &sr); err != nil {
		return nil, err
	}
	return sr.Runs, nil
}

// Run submits one Spec and waits for its Results — the one-call path a CLI
// or test wants.
func (c *Client) Run(ctx context.Context, spec system.Spec, timeout time.Duration) (RunRecord, error) {
	runs, err := c.Submit(ctx, SubmitRequest{Spec: &spec}, true, timeout)
	if err != nil {
		return RunRecord{}, err
	}
	if len(runs) != 1 {
		return RunRecord{}, fmt.Errorf("service: %d records for one spec", len(runs))
	}
	r := runs[0]
	if r.Status == string(statusFailed) {
		return r, fmt.Errorf("service: run %s failed: %s", r.Key, r.Error)
	}
	if r.Status != string(statusDone) {
		return r, fmt.Errorf("service: run %s still %s", r.Key, r.Status)
	}
	return r, nil
}

// Get polls one run by key.
func (c *Client) Get(ctx context.Context, key string) (RunRecord, error) {
	var rec RunRecord
	err := c.getJSON(ctx, "/v1/runs/"+key, nil, &rec)
	return rec, err
}

// Wait polls key until the run reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, key string, poll time.Duration) (RunRecord, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		rec, err := c.Get(ctx, key)
		if err != nil {
			return rec, err
		}
		if rec.Status == string(statusDone) || rec.Status == string(statusFailed) {
			return rec, nil
		}
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Sweep streams a matrix run, invoking each for every per-run line as it
// arrives, and returns the trailing summary.
func (c *Client) Sweep(ctx context.Context, m Matrix, timeout time.Duration, each func(RunRecord) error) (SweepSummary, error) {
	q := url.Values{}
	if m.Scale != "" {
		q.Set("scale", m.Scale)
	}
	if m.Cores > 0 {
		q.Set("cores", strconv.Itoa(m.Cores))
	}
	// Plain names travel comma-joined in ?benchmarks=. A parameterized
	// spelling ("stream:stride=128") contains commas of its own, so it
	// needs the repeatable ?workload= form — and because the server
	// appends ?workload= entries after the ?benchmarks= list, a mixed
	// matrix sends EVERY entry through ?workload= to preserve the
	// caller's enumeration order on the stream.
	parameterized := false
	for _, b := range m.Benchmarks {
		if strings.Contains(b, ":") {
			parameterized = true
		}
	}
	if parameterized {
		for _, b := range m.Benchmarks {
			q.Add("workload", b)
		}
	} else if len(m.Benchmarks) > 0 {
		q.Set("benchmarks", strings.Join(m.Benchmarks, ","))
	}
	if len(m.Systems) > 0 {
		q.Set("systems", strings.Join(m.Systems, ","))
	}
	if m.Overrides != nil {
		// List() only emits positive values, so validate first: a negative
		// override must fail here like it would on the POST path, not
		// silently sweep the default machine.
		if err := m.Overrides.Validate(); err != nil {
			return SweepSummary{}, err
		}
		for _, kv := range m.Overrides.List() {
			q.Add("set", fmt.Sprintf("%s=%d", kv.Name, kv.Value))
		}
	}
	for _, ax := range m.Sweep {
		q.Add("sweep", axisParam(ax.Name, ax.Values))
	}
	for _, ax := range m.WSweep {
		q.Add("wsweep", axisParam(ax.Name, ax.Values))
	}
	if m.Analyze {
		q.Set("analyze", "1")
	}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
	}
	// A shed (429/503) arrives before the stream starts, so retrying the
	// whole GET is safe: no lines have been consumed yet.
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/sweep", q), nil)
	})
	if err != nil {
		return SweepSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepSummary{}, apiError(resp)
	}

	// Each line is a RunRecord, except the last, which wraps the summary.
	type sweepLine struct {
		RunRecord
		Summary *SweepSummary `json:"summary,omitempty"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var sum *SweepSummary
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l sweepLine
		if err := json.Unmarshal(line, &l); err != nil {
			return SweepSummary{}, fmt.Errorf("service: bad sweep line %q: %w", line, err)
		}
		if l.Summary != nil {
			sum = l.Summary
			continue
		}
		if each != nil {
			if err := each(l.RunRecord); err != nil {
				return SweepSummary{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return SweepSummary{}, err
	}
	if sum == nil {
		return SweepSummary{}, fmt.Errorf("service: sweep stream ended without a summary")
	}
	return *sum, nil
}

// Plan streams an adaptive plan: POST req, invoke each for every probe
// line as the strategy searches, and return the final verdict. Sheds
// (429/503) retry like every other path — the body is re-marshalled fresh
// per attempt and nothing has streamed before the status line commits.
func (c *Client) Plan(ctx context.Context, req PlanRequest, timeout time.Duration, each func(planner.Probe) error) (planner.Verdict, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return planner.Verdict{}, err
	}
	q := url.Values{}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
	}
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/plan", q), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return hreq, nil
	})
	if err != nil {
		return planner.Verdict{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return planner.Verdict{}, apiError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var verdict *planner.Verdict
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev PlanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return planner.Verdict{}, fmt.Errorf("service: bad plan line %q: %w", line, err)
		}
		switch {
		case ev.Error != "":
			return planner.Verdict{}, fmt.Errorf("service: plan failed: %s", ev.Error)
		case ev.Verdict != nil:
			verdict = ev.Verdict
		case ev.Probe != nil && each != nil:
			if err := each(*ev.Probe); err != nil {
				return planner.Verdict{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return planner.Verdict{}, err
	}
	if verdict == nil {
		return planner.Verdict{}, fmt.Errorf("service: plan stream ended without a verdict")
	}
	return *verdict, nil
}

// axisParam renders one sweep axis as its "name=v1,v2,..." query payload.
func axisParam(name string, values []int) string {
	vals := make([]string, len(values))
	for i, v := range values {
		vals[i] = strconv.Itoa(v)
	}
	return name + "=" + strings.Join(vals, ",")
}

// Analysis fetches the rule-driven bottleneck findings of a completed run
// by key.
func (c *Client) Analysis(ctx context.Context, key string) (analysis.Report, error) {
	var rep analysis.Report
	err := c.getJSON(ctx, "/v1/runs/"+key+"/analysis", nil, &rep)
	return rep, err
}

// Timeline fetches the sampled counter time series of a telemetry-bearing
// run by key.
func (c *Client) Timeline(ctx context.Context, key string) (telemetry.TimeSeries, error) {
	var ts telemetry.TimeSeries
	err := c.getJSON(ctx, "/v1/runs/"+key+"/timeline", nil, &ts)
	return ts, err
}

// Stats fetches the daemon counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var st StatsResponse
	err := c.getJSON(ctx, "/v1/stats", nil, &st)
	return st, err
}

// Healthz reports daemon liveness.
func (c *Client) Healthz(ctx context.Context) error {
	var h struct {
		Status string `json:"status"`
	}
	if err := c.getJSON(ctx, "/v1/healthz", nil, &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("service: health %q", h.Status)
	}
	return nil
}
