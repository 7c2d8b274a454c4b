package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is one httptest-backed fleet member whose handler is swappable
// after the cluster learns its URL.
type fakePeer struct {
	ts      *httptest.Server
	handler atomic.Value // http.HandlerFunc
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{}
	p.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func (p *fakePeer) set(h http.HandlerFunc) { p.handler.Store(h) }

// newTestCluster builds a cluster for self "a" with the given remote fakes
// and the health loop disabled (tests drive PollOnce).
func newTestCluster(t *testing.T, remotes map[string]*fakePeer) *Cluster {
	t.Helper()
	peers := []Node{{ID: "a", URL: "http://unused-self"}}
	for id, p := range remotes {
		peers = append(peers, Node{ID: id, URL: p.ts.URL})
	}
	c, err := New(Options{Self: "a", Peers: peers, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewRejectsBadMembership(t *testing.T) {
	if _, err := New(Options{Self: "a", Peers: []Node{{ID: "b", URL: "http://x"}}, HealthInterval: -1}); err == nil {
		t.Fatal("self missing from peers accepted")
	}
	if _, err := New(Options{Self: "a", HealthInterval: -1, Peers: []Node{
		{ID: "a", URL: "http://x"}, {ID: "b", URL: "http://y"}, {ID: "b", URL: "http://z"},
	}}); err == nil {
		t.Fatal("duplicate member ID accepted")
	}
}

// TestOwnerSkipsDownPeers: a down peer leaves the ring — its keys rehash to
// the next ranked member — and returns when it answers a probe again.
func TestOwnerSkipsDownPeers(t *testing.T) {
	b := newFakePeer(t)
	c := newTestCluster(t, map[string]*fakePeer{"b": b})

	// Find a key b owns while alive.
	key := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if owner, local := c.Owner(k); owner == "b" && !local {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by b in 1000 tries")
	}

	// Fail probes until b crosses DownAfter; ownership must move to self.
	b.set(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	for i := 0; i < DefaultDownAfter; i++ {
		c.PollOnce(context.Background())
	}
	if st := c.state("b"); st != Down {
		t.Fatalf("b state = %v after %d failed probes, want down", st, DefaultDownAfter)
	}
	if owner, local := c.Owner(key); !local {
		t.Fatalf("Owner(%q) = %q with b down, want self", key, owner)
	}

	// One good probe resurrects it.
	b.set(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	c.PollOnce(context.Background())
	if owner, _ := c.Owner(key); owner != "b" {
		t.Fatalf("Owner(%q) = %q after recovery, want b", key, owner)
	}
}

// TestRequestPathFailuresDemotePeer: requests through Peer's client carry
// the sender's ID in ForwardedHeader, and their transport errors feed the
// same liveness counter as health probes — a peer dying mid-sweep goes down
// without waiting for the poll interval, while a request its caller
// abandoned does not count. Every request leaves the in-flight count.
func TestRequestPathFailuresDemotePeer(t *testing.T) {
	b := newFakePeer(t)
	var from atomic.Value
	b.set(func(w http.ResponseWriter, r *http.Request) {
		from.Store(r.Header.Get(ForwardedHeader))
		w.WriteHeader(http.StatusOK)
	})
	c := newTestCluster(t, map[string]*fakePeer{"b": b})
	url, hc, ok := c.Peer("b")
	if !ok || url != b.ts.URL {
		t.Fatalf("Peer(b) = %q, %v; want %q", url, ok, b.ts.URL)
	}
	if _, _, ok := c.Peer("a"); ok {
		t.Fatal("Peer(self) reported a remote member")
	}
	get := func() error {
		resp, err := hc.Get(url + "/v1/stats")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	if err := get(); err != nil {
		t.Fatal(err)
	}
	if got, _ := from.Load().(string); got != "a" {
		t.Fatalf("%s = %q, want the sender's ID %q", ForwardedHeader, got, "a")
	}

	// Requests their callers abandoned say nothing about the peer.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < DefaultDownAfter; i++ {
		req, _ := http.NewRequestWithContext(gone, http.MethodGet, url+"/v1/stats", nil)
		if _, err := hc.Do(req); err == nil {
			t.Fatal("request with a canceled context succeeded")
		}
	}
	if st := c.state("b"); st != Alive {
		t.Fatalf("b state = %v after abandoned requests, want alive", st)
	}

	b.ts.Close() // connection refused from here on
	for i := 0; i < DefaultDownAfter; i++ {
		if get() == nil {
			t.Fatal("request to a closed peer succeeded")
		}
	}
	if st := c.state("b"); st != Down {
		t.Fatalf("b state = %v after %d transport failures, want down", st, DefaultDownAfter)
	}
	for _, m := range c.Info().Members {
		if m.InFlight != 0 {
			t.Fatalf("member %s in flight = %d after every request ended, want 0", m.ID, m.InFlight)
		}
	}
}

// TestClosedClusterRefusesWork: after Close, Peer's client refuses requests
// to a peer that still answers, and Drain returns once nothing is in flight.
func TestClosedClusterRefusesWork(t *testing.T) {
	b := newFakePeer(t)
	b.set(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	c := newTestCluster(t, map[string]*fakePeer{"b": b})
	url, hc, ok := c.Peer("b")
	if !ok {
		t.Fatal("Peer(b) not found")
	}
	get := func() error {
		resp, err := hc.Get(url + "/v1/stats")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	if err := get(); err != nil {
		t.Fatalf("request before Close: %v", err)
	}

	c.Close()
	if get() == nil {
		t.Fatal("request succeeded on a closed cluster")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
