package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
)

// The fleet workload: two in-process hybridsimd members on loopback forming
// a static cluster ring, one worker each (the host has two cores), and one
// closed-loop client holding a connection to each member. A single client
// keeps the request sequence, and so the work, a function of the seed
// alone, and keeps the clients from competing with the members for the two
// cores. Traffic is read-mostly, in cycles of `cycle` requests: one
// GET /v1/sweep over the whole cached pool, one miss (a fresh-seed spec
// that must be computed), and the rest POST /v1/runs of seeded picks from
// the cached pool.
//
// The mix is a chosen shape, not one measured from real traffic: the repo
// has no trace of daemon traffic to derive it from. How much of the
// client's time the misses take, and so how much of run_s and req_per_s is
// simulator time rather than service time, is reported as
// fleet.miss_time_pct on the traced run.
const (
	cycle = 400
	// passRequests is the fleet's unit of work for run_s and alloc_mb: the
	// time and allocation it takes the client to finish this many runs.
	passRequests = 2000
	// warmRequests are sent and checked before timing starts.
	warmRequests = 5 * cycle
	fleetSetups  = 5
)

// memLatencies are the DRAM latencies the pool's knob axis draws from. The
// band is chosen, not measured: its values sit close together so that every
// seed's pool costs about the same to warm, which keeps setup_s steady
// across seeds.
var memLatencies = []int{88, 92, 96, 100, 104, 108, 112, 116}

// poolMatrix is the fleet's cached matrix: three cheap workloads on both
// machines at four seeded DRAM latencies — 24 tiny 4-core specs.
func poolMatrix(seed uint64) service.Matrix {
	rng := rand.New(rand.NewPCG(seed, 0x600d))
	perm := rng.Perm(len(memLatencies))[:4]
	vals := make([]int, len(perm))
	for i, p := range perm {
		vals[i] = memLatencies[p]
	}
	sort.Ints(vals)
	return service.Matrix{
		Benchmarks: []string{"EP", "CG", "stream"},
		Systems:    []string{"cache", "hybrid"},
		Scale:      "tiny",
		Cores:      4,
		Sweep:      []runner.KnobAxis{{Name: "mem_latency", Values: vals}},
	}
}

// node is one HTTP server on a loopback port.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serveOn(ln net.Listener, h http.Handler) *node {
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n
}

func serve(h http.Handler) (*node, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	return serveOn(ln, h), nil
}

// close stops accepting, finishes in-flight requests, and waits for the
// serve loop to return.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	<-n.done
}

// newClient is a typed client holding one keep-alive connection.
func newClient(base string) *service.Client {
	return &service.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}}}
}

// member is one fleet daemon plus the client that talks to it.
type member struct {
	id     string
	srv    *service.Server
	cl     *cluster.Cluster
	node   *node
	client *service.Client
}

type fleet struct{ members []*member }

func startFleet() (*fleet, error) {
	ids := []string{"a", "b"}
	lns := make([]net.Listener, len(ids))
	peers := make([]cluster.Node, len(ids))
	for i, id := range ids {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Node{ID: id, URL: "http://" + ln.Addr().String()}
	}
	f := &fleet{}
	for i, id := range ids {
		cl, err := cluster.New(cluster.Options{Self: id, Peers: peers})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		srv := service.New(service.Options{Workers: 1, Cluster: cl})
		m := &member{id: id, srv: srv, cl: cl, node: serveOn(lns[i], srv.Handler())}
		m.client = newClient(m.node.url)
		f.members = append(f.members, m)
	}
	return f, nil
}

// close shuts the fleet down in the daemon's order: listeners drain, the
// cluster stops and flushes outbound work, then the workers stop.
func (f *fleet) close() {
	for _, m := range f.members {
		m.node.close()
		m.client.HTTP.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range f.members {
		m.cl.Close()
		m.cl.Drain(ctx)
	}
	for _, m := range f.members {
		m.srv.Close()
	}
}

// ownerOf returns spec's ring owner and the other member.
func (f *fleet) ownerOf(spec system.Spec) (owner, other *member) {
	id, _ := f.members[0].cl.Owner(spec.Hash())
	if id == f.members[0].id {
		return f.members[0], f.members[1]
	}
	return f.members[1], f.members[0]
}

// projection is the input-ordered content of a sweep stream.
type projection []string

func sweep(ctx context.Context, c *service.Client, m service.Matrix) (projection, error) {
	var p projection
	sum, err := c.Sweep(ctx, m, 0, func(r service.RunRecord) error {
		if r.Results == nil {
			return fmt.Errorf("sweep line %d: %s", r.Index, r.Error)
		}
		p = append(p, fmt.Sprintf("%d %s %s", r.Index, r.Key, digestOf([]system.Results{*r.Results})))
		return nil
	})
	if err == nil && sum.Failed > 0 {
		err = fmt.Errorf("sweep: %d runs failed", sum.Failed)
	}
	return p, err
}

// setupFleet starts a fleet and warms it: a sweep of the pool through the
// first member computes every spec once (owner-routed across both), and a
// sweep through the second must stream the identical projection.
func setupFleet(ctx context.Context, m service.Matrix) (*fleet, projection, error) {
	f, err := startFleet()
	if err != nil {
		return nil, nil, err
	}
	ref, err := sweep(ctx, f.members[0].client, m)
	if err == nil {
		var other projection
		if other, err = sweep(ctx, f.members[1].client, m); err == nil && !slices.Equal(ref, other) {
			err = errors.New("fleet members stream different sweep projections")
		}
	}
	if err != nil {
		f.close()
		return nil, nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return f, ref, nil
}

// traffic is what the client measured in its timed window.
type traffic struct {
	tally
	missMS, sweepS, hits  []float64
	passS, allocMB, rssMB []float64
	requests              int
	missRetired           uint64
	missWallMS            float64
	busyMS                float64 // client time spent waiting on any request
	window                float64
}

// missTimePct is the share of the client's request time spent on misses.
func (tr traffic) missTimePct() float64 {
	var miss float64
	for _, v := range tr.missMS {
		miss += v
	}
	return 100 * ratio(miss, tr.busyMS)
}

// runMiss sends client ci's k-th miss, a fresh-seed spec no one has asked
// for. Even misses are single-spec runs, which the member owner-routes:
// a forward when the other member owns the spec. Odd misses are list
// submissions of a spec the other member owns. A member keeps list
// submissions local, so its worker probes the owner's cache (a fill that
// misses), computes the spec, and offers the result to the owner.
func (f *fleet) runMiss(ctx context.Context, ci int, seed, k uint64) (service.RunRecord, error) {
	self := f.members[ci]
	base := 2<<56 | uint64(ci)<<40 | k<<8
	if k%2 == 0 {
		return self.client.Run(ctx, missSpec(freshSeed(seed, base)), 0)
	}
	for j := uint64(0); j < 256; j++ {
		spec := missSpec(freshSeed(seed, base|j))
		if owner, _ := f.ownerOf(spec); owner == self {
			continue
		}
		recs, err := self.client.Submit(ctx, service.SubmitRequest{Specs: []system.Spec{spec}}, true, 0)
		if err != nil {
			return service.RunRecord{}, err
		}
		if len(recs) != 1 {
			return service.RunRecord{}, fmt.Errorf("%d records for one spec", len(recs))
		}
		return recs[0], nil
	}
	return service.RunRecord{}, errors.New("no fresh spec owned by the other member")
}

// drive runs the closed-loop client: warmRequests requests untimed, then
// seconds of timed traffic. Request i is a pure function of (seed, i), so a
// seed fixes the inputs even though the time limit decides how many are
// sent. Pool requests alternate between the members; sweeps and misses
// alternate between them cycle by cycle. Every answer is checked, warm-up
// included.
func drive(ctx context.Context, f *fleet, pool []system.Spec, m service.Matrix, ref projection, seed uint64, seconds float64) traffic {
	var (
		tr              traffic
		answers         = map[string]system.Results{} // first answer per key
		rng             = rand.New(rand.NewPCG(seed, 1))
		peaks           = startPeakRSS()
		start, deadline time.Time
		passT           time.Time
		passA           uint64
	)
	defer peaks.stop()
	for i := uint64(1); ctx.Err() == nil; i++ {
		if i == warmRequests+1 {
			start = time.Now()
			deadline = start.Add(time.Duration(seconds * float64(time.Second)))
			passT, passA = start, allocBytes()
			peaks.take()
		}
		timed := i > warmRequests
		if timed && !time.Now().Before(deadline) {
			break
		}
		k := i / cycle
		if i%cycle == 0 {
			ci := int(k % 2)
			tr.op()
			t0 := time.Now()
			p, err := sweep(ctx, f.members[ci].client, m)
			d := time.Since(t0)
			if timed {
				tr.sweepS = append(tr.sweepS, d.Seconds())
				tr.busyMS += ms(d)
			}
			tr.check(err == nil && slices.Equal(p, ref), "sweep via member %d: err=%v, projection matches=%v", ci, err, slices.Equal(p, ref))
			continue
		}
		miss := i%cycle == cycle/2
		tr.op()
		var (
			ci  int
			rec service.RunRecord
			err error
		)
		t0 := time.Now()
		if miss {
			ci = int(k / 2 % 2)
			rec, err = f.runMiss(ctx, ci, seed, k)
		} else {
			ci = int(i % 2)
			rec, err = f.members[ci].client.Run(ctx, pool[rng.IntN(len(pool))], 0)
		}
		lat := ms(time.Since(t0))
		if err != nil || rec.Results == nil {
			tr.fail("request %d via member %d (miss=%v): %v", i, ci, miss, err)
			continue
		}
		want, seen := answers[rec.Key]
		if !seen {
			answers[rec.Key] = *rec.Results
		}
		tr.check(!seen || want == *rec.Results, "%s via member %d: answer differs from the first", rec.Key, ci)
		if !timed {
			continue
		}
		tr.busyMS += lat
		if miss {
			tr.missMS = append(tr.missMS, lat)
			tr.missRetired += rec.Results.Retired
			tr.missWallMS += rec.WallMS
		} else {
			tr.hits = append(tr.hits, lat)
		}
		tr.requests++
		if tr.requests%passRequests == 0 {
			now, a := time.Now(), allocBytes()
			tr.passS = append(tr.passS, now.Sub(passT).Seconds())
			tr.allocMB = append(tr.allocMB, float64(a-passA)/(1<<20))
			tr.rssMB = append(tr.rssMB, peaks.take())
			passT, passA = now, a
		}
	}
	tr.window = time.Since(start).Seconds()
	return tr
}

func runFleet(ctx context.Context, o options) (*report, error) {
	m := poolMatrix(o.seed)
	pool, err := m.Specs()
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceFleet(ctx, o, m, pool)
	}
	rep := &report{metrics: map[string]metric{}}
	var (
		setups []float64
		f      *fleet
		ref    projection
	)
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		if f, ref, err = setupFleet(ctx, m); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	runtime.GC()

	tr := drive(ctx, f, pool, m, ref, o.seed, o.seconds)
	rep.tally = tr.tally
	rep.digest = digestOfProjection(ref)
	rep.set("setup_s", "s", median(setups))
	rep.set("run_s", "s", median(tr.passS))
	rep.set("sim_kips", "kinst/s", ratio(float64(tr.missRetired), tr.missWallMS))
	rep.set("alloc_mb", "MB", median(tr.allocMB))
	rep.set("max_rss_mb", "MB", median(tr.rssMB))
	rep.set("hit_mean_ms", "ms", mean(tr.hits))
	rep.set("hit_p99_ms", "ms", quantile(tr.hits, 0.99))
	rep.set("miss_p50_ms", "ms", median(tr.missMS))
	rep.set("req_per_s", "1/s", float64(tr.requests)/tr.window)
	rep.set("sweep_s", "s", median(tr.sweepS))
	if len(tr.passS) == 0 || len(tr.missMS) == 0 || len(tr.sweepS) == 0 {
		rep.fail("fleet window too short: %d passes, %d misses, %d sweeps", len(tr.passS), len(tr.missMS), len(tr.sweepS))
	}
	return rep, nil
}

func digestOfProjection(p projection) string {
	sum := sha256.Sum256([]byte(strings.Join(p, "\n")))
	return hex.EncodeToString(sum[:8])
}

// traceFleet is the fleet's traced run: the same traffic under the CPU
// profiler with both members' /metrics scraped before and after and their
// queue depth polled, then the simulator layers of the miss shape and the
// layer drivers.
func traceFleet(ctx context.Context, o options, m service.Matrix, pool []system.Spec) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	f, ref, err := setupFleet(ctx, m)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.digest = digestOfProjection(ref)

	before, err := scrapeFleet(ctx, f)
	if err != nil {
		return nil, err
	}
	pollCtx, stopPoll := context.WithCancel(ctx)
	depth := make(chan int, 1)
	go func() { depth <- pollQueueDepth(pollCtx, f) }()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile()
	if err != nil {
		stopPoll()
		<-depth
		return nil, err
	}
	tr := drive(ctx, f, pool, m, ref, o.seed, o.seconds)
	byLayer, err := prof.stop(ctx)
	runtime.ReadMemStats(&ms1)
	stopPoll()
	if err != nil {
		<-depth
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rep.set("service.queue_depth_max", "count", float64(<-depth))
	rep.tally = tr.tally

	after, err := scrapeFleet(ctx, f)
	if err != nil {
		return nil, err
	}
	setServiceCounts(rep, before, after)
	rep.set("fleet.miss_time_pct", "%", tr.missTimePct())
	setSelfPct(rep, byLayer)

	// The simulator layers of the fleet are those of its computed runs.
	if _, err := simLayers(ctx, rep, []system.Spec{missSpec(freshSeed(o.seed, 5<<20))}, false); err != nil {
		return nil, err
	}
	rep.set("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	rep.set("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	if err := runDrivers(ctx, rep, o.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// setServiceCounts sets the rescache, service and cluster counts from two
// /metrics scrapes of the fleet. The simulator workloads run no service,
// so they pass empty scrapes and read zero.
func setServiceCounts(rep *report, before, after promText) {
	d := func(name, label string) float64 { return after.sum(name, label) - before.sum(name, label) }
	hits, misses := d("hybridsimd_cache_hits_total", ""), d("hybridsimd_cache_misses_total", "")
	rep.set("rescache.mem_hits", "count", d("hybridsimd_cache_memory_hits_total", ""))
	rep.set("rescache.disk_hits", "count", d("hybridsimd_cache_disk_hits_total", ""))
	rep.set("rescache.misses", "count", misses)
	rep.set("rescache.dedup", "count", d("hybridsimd_cache_singleflight_hits_total", ""))
	rep.set("rescache.hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.set("service.rejected", "count", d("hybridsimd_runs_rejected_total", ""))
	rep.set("cluster.forwards", "count", d("hybridsimd_cluster_forwards_total", ""))
	rep.set("cluster.fills", "count", d("hybridsimd_cluster_fills_total", ""))
	rep.set("cluster.offers", "count", d("hybridsimd_cluster_offers_total", ""))
	rep.set("cluster.sheds", "count", d("hybridsimd_cluster_sheds_total", ""))
}

// pollQueueDepth samples both members' queue depth until ctx ends and
// returns the largest seen.
func pollQueueDepth(ctx context.Context, f *fleet) int {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	var clients []*service.Client
	for _, mem := range f.members {
		clients = append(clients, &service.Client{Base: mem.node.url, HTTP: hc})
	}
	maxDepth := 0
	for ctx.Err() == nil {
		for _, c := range clients {
			st, err := c.Stats(ctx)
			if err == nil && st.QueueDepth > maxDepth {
				maxDepth = st.QueueDepth
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
	}
	return maxDepth
}

// promText is a Prometheus text exposition, one sample per line.
type promText []string

func scrapeFleet(ctx context.Context, f *fleet) (promText, error) {
	var all promText
	for _, mem := range f.members {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, mem.node.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", mem.id, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
				all = append(all, line)
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", mem.id, err)
		}
	}
	return all, nil
}

// sum adds every sample of family name whose labels contain label.
func (p promText) sum(name, label string) float64 {
	var t float64
	for _, line := range p {
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		series, val := line[:cut], line[cut+1:]
		fam, labels, _ := strings.Cut(series, "{")
		if fam != name || !strings.Contains(labels, label) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			t += v
		}
	}
	return t
}
