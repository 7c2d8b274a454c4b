// Package cluster federates N hybridsimd daemons into one sweep fleet.
//
// Membership is static: every daemon is started with the same -peers list
// and its own -node-id, and computes the same consistent-hash ring over
// member IDs (ring.go). A run's canonical Spec.Hash() is its shard key: the
// first live member clockwise of the key owns it, so any Spec has exactly
// one place it is supposed to be computed and cached — cross-node
// deduplication falls out of routing every computation to the owner, whose
// in-flight job registry merges concurrent requests for it.
//
// On top of the ring this package provides the one peering verb the service
// layer composes into its request pipeline: Forward, a bounded, retrying
// proxy of an API request to a specific peer. The service forwards a run to
// its owner as a POST /v1/runs?wait=true and adopts the answer into its own
// cache, and proxies GET /v1/runs/{key} reads the same way. A node computes
// a key it does not own only after the forward to the owner has failed.
//
// Liveness is health-checked, not gossiped: a background loop probes every
// peer's /v1/healthz, and transport failures on the request paths feed the
// same failure counter, so a peer that dies mid-sweep flips to down after
// DefaultDownAfter consecutive errors without waiting out the poll interval. A
// down peer leaves the ring (Owner skips it — the automatic rehash), and
// everything it owned degrades to the next member, or to local compute.
// All outbound work is bounded: per-peer forward windows with a shed-past
// backlog, per-request retry with exponential backoff honoring Retry-After,
// and a WaitGroup so shutdown can drain in-flight forwards.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ForwardedHeader marks an intra-fleet request. A daemon never re-forwards a
// request carrying it, so divergent liveness views cannot create routing
// loops; the value is the sending node's ID, for logs.
const ForwardedHeader = "X-Hybridsimd-Forwarded"

// ErrSaturated reports a forward that was shed because the target peer's
// window and backlog are both full. Callers degrade to local compute.
var ErrSaturated = errors.New("cluster: forward window saturated")

// Defaults for Options zero values.
const (
	DefaultForwardWindow  = 32
	DefaultRetries        = 2
	DefaultBackoffBase    = 100 * time.Millisecond
	DefaultHealthInterval = 2 * time.Second
	maxBackoff            = 5 * time.Second
)

// Fixed fleet parameters: the virtual nodes per ring member (every member
// must agree on it), the bound on one health probe, and the consecutive
// failures that turn a suspect peer down.
const (
	DefaultVNodes        = 64
	DefaultHealthTimeout = time.Second
	DefaultDownAfter     = 3
)

// Node is one fleet member: a stable ID (the ring hashes IDs, so identity
// survives address changes) and its base URL.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// State is a peer's health as seen from this node.
type State int32

const (
	// Alive peers answer probes; they own their arc of the ring.
	Alive State = iota
	// Suspect peers failed at least one probe but fewer than DefaultDownAfter;
	// they keep their arc (a single dropped packet must not move keys).
	Suspect
	// Down peers failed DefaultDownAfter consecutive probes; the ring skips them
	// until a probe succeeds again.
	Down
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	default:
		return "down"
	}
}

// gaugeValue renders a state on the peer_state gauge: 2 alive, 1 suspect,
// 0 down — so "is the fleet whole" is sum(peer_state) == 2*(members-1).
func (s State) gaugeValue() int64 { return int64(2 - s) }

// Options configures a Cluster.
type Options struct {
	// Self is this daemon's member ID; it must appear in Peers.
	Self string

	// Peers is the full fleet membership, including self. Every member must
	// be started with an identical list (same IDs) or placement diverges.
	Peers []Node

	// ForwardWindow bounds concurrent in-flight forwards per peer; past it
	// callers queue up to ForwardBacklog waiters, then shed (default
	// DefaultForwardWindow).
	ForwardWindow int

	// ForwardBacklog bounds waiters past the window (default 4x window).
	ForwardBacklog int

	// Retries is how many times a failed or shed forward is retried with
	// exponential backoff (default DefaultRetries; negative disables).
	Retries int

	// BackoffBase seeds the exponential retry backoff; the server's
	// Retry-After wins when longer (default DefaultBackoffBase).
	BackoffBase time.Duration

	// HealthInterval paces the background liveness probes; 0 means
	// DefaultHealthInterval, negative disables the loop (tests drive
	// PollOnce directly).
	HealthInterval time.Duration

	// Log receives peer state transitions and degradations; nil discards.
	Log *slog.Logger
}

// peer is one remote member plus its health and flow-control state.
type peer struct {
	id, url string
	state   atomic.Int32
	fails   atomic.Int32
	window  chan struct{} // in-flight forward slots
	waiters atomic.Int32  // callers blocked on a slot
}

// Cluster is the fleet view of one daemon. Safe for concurrent use.
type Cluster struct {
	opt   Options
	self  string
	ring  *ring
	peers map[string]*peer
	order []string // sorted remote IDs
	http  *http.Client
	log   *slog.Logger

	// sleep is the backoff clock; tests swap it to assert retry pacing
	// without real waiting.
	sleep func(time.Duration)

	closed atomic.Bool
	wg     sync.WaitGroup // in-flight forwards
	stop   context.CancelFunc
	done   chan struct{}

	reg       *metrics.Registry
	forwards  *metrics.CounterVec // by peer, outcome (ok|error|saturated)
	sheds     *metrics.CounterVec // by reason (forward-backlog)
	peerState *metrics.GaugeVec   // by peer: 2 alive, 1 suspect, 0 down
}

// New validates the membership, builds the ring, and (unless disabled)
// starts the health loop. Call Close, then Drain, on shutdown.
func New(opt Options) (*Cluster, error) {
	if opt.Self == "" {
		return nil, errors.New("cluster: empty self ID")
	}
	if opt.ForwardWindow < 1 {
		opt.ForwardWindow = DefaultForwardWindow
	}
	if opt.ForwardBacklog < 1 {
		opt.ForwardBacklog = 4 * opt.ForwardWindow
	}
	if opt.Retries == 0 {
		opt.Retries = DefaultRetries
	} else if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = DefaultBackoffBase
	}
	if opt.HealthInterval == 0 {
		opt.HealthInterval = DefaultHealthInterval
	}
	if opt.Log == nil {
		opt.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	ids := make([]string, 0, len(opt.Peers))
	peers := make(map[string]*peer, len(opt.Peers))
	selfSeen := false
	for _, n := range opt.Peers {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: member %+v needs both an ID and a URL", n)
		}
		if _, dup := peers[n.ID]; dup || (selfSeen && n.ID == opt.Self) {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", n.ID)
		}
		ids = append(ids, n.ID)
		if n.ID == opt.Self {
			selfSeen = true
			continue
		}
		peers[n.ID] = &peer{
			id:     n.ID,
			url:    strings.TrimRight(n.URL, "/"),
			window: make(chan struct{}, opt.ForwardWindow),
		}
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: self ID %q not in the peer list", opt.Self)
	}

	c := &Cluster{
		opt:   opt,
		self:  opt.Self,
		ring:  newRing(ids, DefaultVNodes),
		peers: peers,
		http:  &http.Client{},
		log:   opt.Log,
		done:  make(chan struct{}),
	}
	for id := range peers {
		c.order = append(c.order, id)
	}
	sort.Strings(c.order)
	c.initMetrics()

	if opt.HealthInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.stop = cancel
		go c.healthLoop(ctx)
	} else {
		close(c.done)
	}
	return c, nil
}

// initMetrics builds the cluster's own registry; the service attaches it to
// the daemon's /metrics surface.
func (c *Cluster) initMetrics() {
	r := metrics.NewRegistry()
	c.reg = r
	r.Info("hybridsimd_cluster_info", "Static fleet identity of this daemon.",
		map[string]string{"self": c.self, "members": strconv.Itoa(len(c.order) + 1)})
	c.forwards = r.CounterVec("hybridsimd_cluster_forwards_total",
		"Requests forwarded to a peer, by peer and outcome.", "peer", "outcome")
	c.sheds = r.CounterVec("hybridsimd_cluster_sheds_total",
		"Outbound work dropped by flow control, by reason.", "reason")
	c.peerState = r.GaugeVec("hybridsimd_cluster_peer_state",
		"Peer liveness: 2 alive, 1 suspect, 0 down.", "peer")
	for _, id := range c.order {
		c.peerState.With(id).Set(Alive.gaugeValue())
	}
	r.GaugeFunc("hybridsimd_cluster_peers_alive", "Remote members currently alive.",
		func() int64 {
			n := int64(0)
			for _, p := range c.peers {
				if State(p.state.Load()) == Alive {
					n++
				}
			}
			return n
		})
}

// Metrics exposes the cluster's registry for attachment to /metrics.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Self returns this daemon's member ID.
func (c *Cluster) Self() string { return c.self }

// Close stops the health loop and refuses new outbound work. In-flight
// forwards keep running; Drain waits for them.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.stop != nil {
		c.stop()
		<-c.done
	}
}

// Drain blocks until every in-flight forward has finished,
// or ctx expires. The graceful-shutdown sequence is: stop the HTTP listener
// (drains inbound, including requests peers forwarded here), Close (no new
// outbound), Drain (flush outbound), then stop the worker pool.
func (c *Cluster) Drain(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain: %w", ctx.Err())
	}
}

// state reports a member's health; self is always alive.
func (c *Cluster) state(id string) State {
	p, ok := c.peers[id]
	if !ok {
		return Alive
	}
	return State(p.state.Load())
}

// Owner resolves the live owner of a shard key: the first non-down member
// clockwise of the key. local reports ownership by this daemon — including
// the degenerate fall-through where every ranked member ahead of self is
// down, so the key is computed here rather than nowhere.
func (c *Cluster) Owner(key string) (id string, local bool) {
	for _, id := range c.ring.ranked(key) {
		if id == c.self {
			return id, true
		}
		if c.state(id) != Down {
			return id, false
		}
	}
	return c.self, true
}

// Forward proxies one API request to a specific peer, bounded by the peer's
// forward window (block up to the backlog, then shed with ErrSaturated) and
// retried with backoff on transport errors and 429/503 rejections, honoring
// Retry-After. Any HTTP response — including a final 429 — returns with a
// nil error; err is only transport exhaustion or shedding, the cases where
// the caller should degrade to local compute.
func (c *Cluster) Forward(ctx context.Context, peerID, method, path string, body []byte) (status int, respBody []byte, err error) {
	if c.closed.Load() {
		return 0, nil, errors.New("cluster: closed")
	}
	p, ok := c.peers[peerID]
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown peer %q", peerID)
	}
	if err := c.acquire(ctx, p); err != nil {
		if errors.Is(err, ErrSaturated) {
			c.sheds.With("forward-backlog").Inc()
			c.forwards.With(p.id, "saturated").Inc()
		}
		return 0, nil, err
	}
	defer func() { <-p.window }()
	c.wg.Add(1)
	defer c.wg.Done()

	var lastErr error
	retryAfter := time.Duration(0)
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, retryAfter); err != nil {
				lastErr = err
				break
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, p.url+path, bytes.NewReader(body))
		if err != nil {
			c.forwards.With(p.id, "error").Inc()
			return 0, nil, err
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set(ForwardedHeader, c.self)
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			c.noteFailure(p, err)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		c.noteSuccess(p)
		if (resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable) && attempt < c.opt.Retries {
			retryAfter = parseRetryAfter(resp.Header)
			lastErr = fmt.Errorf("cluster: peer %s rejected with %s", p.id, resp.Status)
			continue
		}
		c.forwards.With(p.id, "ok").Inc()
		return resp.StatusCode, b, nil
	}
	c.forwards.With(p.id, "error").Inc()
	return 0, nil, fmt.Errorf("cluster: forward to %s failed: %w", p.id, lastErr)
}

// acquire takes a forward slot on p: immediately if one is free, by waiting
// (bounded by the backlog and ctx) otherwise. This is the bounded forward
// queue: window in-flight plus backlog waiting, everything past that shed.
func (c *Cluster) acquire(ctx context.Context, p *peer) error {
	select {
	case p.window <- struct{}{}:
		return nil
	default:
	}
	if int(p.waiters.Add(1)) > c.opt.ForwardBacklog {
		p.waiters.Add(-1)
		return ErrSaturated
	}
	defer p.waiters.Add(-1)
	select {
	case p.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff sleeps before retry attempt (1-based): exponential from
// BackoffBase, capped, never shorter than the server's Retry-After.
func (c *Cluster) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.opt.BackoffBase << (attempt - 1)
	if d > maxBackoff {
		d = maxBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	if c.sleep != nil {
		c.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads a delay-seconds Retry-After; absent or malformed
// reads as zero (the exponential backoff still applies).
func parseRetryAfter(h http.Header) time.Duration {
	raw := h.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// healthLoop probes every peer until Close.
func (c *Cluster) healthLoop(ctx context.Context) {
	defer close(c.done)
	t := time.NewTicker(c.opt.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.PollOnce(ctx)
		}
	}
}

// PollOnce runs one liveness sweep over every peer. The background loop
// calls it on each tick; tests call it directly.
func (c *Cluster) PollOnce(ctx context.Context) {
	for _, id := range c.order {
		p := c.peers[id]
		hctx, cancel := context.WithTimeout(ctx, DefaultHealthTimeout)
		req, err := http.NewRequestWithContext(hctx, http.MethodGet, p.url+"/v1/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set(ForwardedHeader, c.self)
		resp, err := c.http.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err != nil {
			c.noteFailure(p, err)
		} else if resp.StatusCode != http.StatusOK {
			c.noteFailure(p, fmt.Errorf("healthz status %d", resp.StatusCode))
		} else {
			c.noteSuccess(p)
		}
	}
}

// noteFailure counts one failed interaction with p and applies the
// suspect/down transition. Request-path failures feed the same counter as
// health probes, so a peer dying mid-sweep is demoted without waiting for
// the poll interval.
func (c *Cluster) noteFailure(p *peer, cause error) {
	fails := p.fails.Add(1)
	next := Suspect
	if int(fails) >= DefaultDownAfter {
		next = Down
	}
	c.transition(p, next, cause)
}

// noteSuccess resets p to alive.
func (c *Cluster) noteSuccess(p *peer) {
	p.fails.Store(0)
	c.transition(p, Alive, nil)
}

// transition publishes a state change (idempotent when the state holds).
func (c *Cluster) transition(p *peer, next State, cause error) {
	prev := State(p.state.Swap(int32(next)))
	if prev == next {
		return
	}
	c.peerState.With(p.id).Set(next.gaugeValue())
	if cause != nil {
		c.log.Warn("cluster: peer state changed", "peer", p.id, "from", prev.String(),
			"to", next.String(), "cause", cause)
	} else {
		c.log.Info("cluster: peer state changed", "peer", p.id, "from", prev.String(),
			"to", next.String())
	}
}

// MemberInfo is one member's snapshot on the /v1/cluster surface.
type MemberInfo struct {
	ID       string `json:"id"`
	URL      string `json:"url,omitempty"`
	State    string `json:"state"`
	Fails    int    `json:"fails,omitempty"`
	InFlight int    `json:"in_flight,omitempty"` // occupied forward slots
	Self     bool   `json:"self,omitempty"`
}

// Snapshot is the fleet as this daemon sees it.
type Snapshot struct {
	Self    string       `json:"self"`
	VNodes  int          `json:"vnodes"`
	Members []MemberInfo `json:"members"`
}

// Info snapshots membership, liveness, and flow-control occupancy.
func (c *Cluster) Info() Snapshot {
	s := Snapshot{Self: c.self, VNodes: DefaultVNodes}
	s.Members = append(s.Members, MemberInfo{ID: c.self, State: Alive.String(), Self: true})
	for _, id := range c.order {
		p := c.peers[id]
		s.Members = append(s.Members, MemberInfo{
			ID:       p.id,
			URL:      p.url,
			State:    State(p.state.Load()).String(),
			Fails:    int(p.fails.Load()),
			InFlight: len(p.window),
		})
	}
	sort.Slice(s.Members, func(i, j int) bool { return s.Members[i].ID < s.Members[j].ID })
	return s
}
