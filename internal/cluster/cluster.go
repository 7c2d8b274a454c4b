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
// The package keeps membership, the ring and liveness; it does not speak
// the API. Peer hands the service one *http.Client per remote member, and
// the service wraps it in its own typed Client, whose retry rule is the
// only one in the daemon. Each peer's transport bounds outbound work at
// maxPeerConns connections (a request past it waits for a free one, bounded
// by its context), stamps ForwardedHeader, counts requests in flight for
// Drain and Info, and refuses new requests after Close.
//
// Liveness is health-checked, not gossiped: a background loop probes every
// peer's /v1/healthz, and transport failures on the request paths feed the
// same failure counter, so a peer that dies mid-sweep flips to down after
// DefaultDownAfter consecutive errors without waiting out the poll interval. A
// down peer leaves the ring (Owner skips it — the automatic rehash), and
// everything it owned degrades to the next member, or to local compute.
package cluster

import (
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

// Fleet parameters: the health-loop pace when Options leaves it zero, the
// virtual nodes per ring member (every member must agree on it), the bound
// on one health probe, the consecutive failures that turn a suspect peer
// down, and the connections one peer's transport may hold open — the only
// bound on outbound work.
const (
	DefaultHealthInterval = 2 * time.Second
	DefaultVNodes         = 64
	DefaultHealthTimeout  = time.Second
	DefaultDownAfter      = 3
	maxPeerConns          = 32
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

	// HealthInterval paces the background liveness probes; 0 means
	// DefaultHealthInterval, negative disables the loop (tests drive
	// PollOnce directly).
	HealthInterval time.Duration

	// Log receives peer state transitions and degradations; nil discards.
	Log *slog.Logger
}

// peer is one remote member: its health and the client requests to it go
// through.
type peer struct {
	id, url  string
	state    atomic.Int32
	fails    atomic.Int32
	inFlight atomic.Int32 // requests whose response body is still open
	hc       *http.Client // over a peerTransport
}

// Cluster is the fleet view of one daemon. Safe for concurrent use.
type Cluster struct {
	self  string
	ring  *ring
	peers map[string]*peer
	order []string     // sorted remote IDs
	probe *http.Client // health probes, outside the peers' connection bound
	log   *slog.Logger

	closed atomic.Bool
	wg     sync.WaitGroup // requests in flight to peers
	stop   context.CancelFunc
	done   chan struct{}

	reg       *metrics.Registry
	forwards  *metrics.CounterVec // by peer, outcome (ok|error)
	peerState *metrics.GaugeVec   // by peer: 2 alive, 1 suspect, 0 down
}

// New validates the membership, builds the ring, and (unless disabled)
// starts the health loop. Call Close, then Drain, on shutdown.
func New(opt Options) (*Cluster, error) {
	if opt.Self == "" {
		return nil, errors.New("cluster: empty self ID")
	}
	if opt.HealthInterval == 0 {
		opt.HealthInterval = DefaultHealthInterval
	}
	if opt.Log == nil {
		opt.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	c := &Cluster{
		self:  opt.Self,
		peers: make(map[string]*peer, len(opt.Peers)),
		probe: &http.Client{},
		log:   opt.Log,
		done:  make(chan struct{}),
	}
	ids := make([]string, 0, len(opt.Peers))
	selfSeen := false
	for _, n := range opt.Peers {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: member %+v needs both an ID and a URL", n)
		}
		if _, dup := c.peers[n.ID]; dup || (selfSeen && n.ID == opt.Self) {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", n.ID)
		}
		ids = append(ids, n.ID)
		if n.ID == opt.Self {
			selfSeen = true
			continue
		}
		p := &peer{id: n.ID, url: strings.TrimRight(n.URL, "/")}
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxConnsPerHost = maxPeerConns
		p.hc = &http.Client{Transport: &peerTransport{c: c, p: p, base: base}}
		c.peers[n.ID] = p
		c.order = append(c.order, n.ID)
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: self ID %q not in the peer list", opt.Self)
	}
	c.ring = newRing(ids, DefaultVNodes)
	sort.Strings(c.order)
	c.initMetrics()

	if opt.HealthInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.stop = cancel
		go c.healthLoop(ctx, opt.HealthInterval)
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

// Peer returns a remote member's base URL and the client every request to
// it goes through; ok is false for self and for unknown IDs.
func (c *Cluster) Peer(id string) (url string, hc *http.Client, ok bool) {
	p, ok := c.peers[id]
	if !ok {
		return "", nil, false
	}
	return p.url, p.hc, true
}

// Close stops the health loop and refuses new outbound requests. Requests
// in flight keep running; Drain waits for them.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.stop != nil {
		c.stop()
		<-c.done
	}
}

// Drain blocks until every request in flight to a peer has finished,
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

// peerTransport is the round tripper of one peer's client. It refuses
// requests after Close, stamps ForwardedHeader, counts each request in
// flight until its response body is closed, and feeds transport errors and
// answers into the peer's liveness.
type peerTransport struct {
	c    *Cluster
	p    *peer
	base *http.Transport
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.c.closed.Load() {
		return nil, errors.New("cluster: closed")
	}
	t.c.wg.Add(1)
	t.p.inFlight.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(ForwardedHeader, t.c.self)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.done()
		t.c.forwards.With(t.p.id, "error").Inc()
		// A request its caller abandoned says nothing about the peer.
		if req.Context().Err() == nil {
			t.c.noteFailure(t.p, err)
		}
		return nil, err
	}
	t.c.forwards.With(t.p.id, "ok").Inc()
	t.c.noteSuccess(t.p)
	resp.Body = &inFlightBody{ReadCloser: resp.Body, done: t.done}
	return resp, nil
}

func (t *peerTransport) done() {
	t.p.inFlight.Add(-1)
	t.c.wg.Done()
}

// inFlightBody ends its request's in-flight count at the first Close.
type inFlightBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *inFlightBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// healthLoop probes every peer until Close.
func (c *Cluster) healthLoop(ctx context.Context, every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
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
		resp, err := c.probe.Do(req)
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
	InFlight int    `json:"in_flight,omitempty"` // requests to the peer not yet answered in full
	Self     bool   `json:"self,omitempty"`
}

// Snapshot is the fleet as this daemon sees it.
type Snapshot struct {
	Self    string       `json:"self"`
	VNodes  int          `json:"vnodes"`
	Members []MemberInfo `json:"members"`
}

// Info snapshots membership, liveness, and requests in flight.
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
			InFlight: int(p.inFlight.Load()),
		})
	}
	sort.Slice(s.Members, func(i, j int) bool { return s.Members[i].ID < s.Members[j].ID })
	return s
}
