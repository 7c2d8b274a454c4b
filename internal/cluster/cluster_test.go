package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
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

// newTestCluster builds a cluster for self "a" with the given remote fakes,
// health loop disabled (tests drive PollOnce), and fast deadlines.
func newTestCluster(t *testing.T, remotes map[string]*fakePeer, mutate func(*Options)) *Cluster {
	t.Helper()
	peers := []Node{{ID: "a", URL: "http://unused-self"}}
	for id, p := range remotes {
		peers = append(peers, Node{ID: id, URL: p.ts.URL})
	}
	opt := Options{
		Self:           "a",
		Peers:          peers,
		HealthInterval: -1,
		BackoffBase:    time.Millisecond,
	}
	if mutate != nil {
		mutate(&opt)
	}
	c, err := New(opt)
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
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, nil)

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

// TestForwardRetries429HonoringRetryAfter: a shed answer is retried after at
// least the server's Retry-After, through the hooked clock — no real sleeps.
func TestForwardRetries429HonoringRetryAfter(t *testing.T) {
	b := newFakePeer(t)
	var calls atomic.Int32
	b.set(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("accepted"))
	})
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, nil)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	status, body, err := c.Forward(context.Background(), "b", http.MethodPost, "/v1/runs", []byte(`{}`))
	if err != nil || status != http.StatusOK || string(body) != "accepted" {
		t.Fatalf("Forward = %d %q %v, want 200 accepted", status, body, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("peer saw %d calls, want 2 (one shed, one retry)", calls.Load())
	}
	if len(slept) != 1 || slept[0] < 3*time.Second {
		t.Fatalf("backoff slept %v, want one wait >= the 3s Retry-After", slept)
	}
}

// TestForwardReturnsFinal429: retries exhausted on a persistent shed hand
// the 429 back (nil error) so the service can relay it to the client.
func TestForwardReturnsFinal429(t *testing.T) {
	b := newFakePeer(t)
	b.set(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, nil)
	c.sleep = func(time.Duration) {}

	status, _, err := c.Forward(context.Background(), "b", http.MethodPost, "/v1/runs", nil)
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("Forward = %d, %v, want a relayed 429 with nil error", status, err)
	}
}

// TestForwardShedsPastBacklog: window full and backlog full means the next
// forward is shed immediately with ErrSaturated, not queued forever.
func TestForwardShedsPastBacklog(t *testing.T) {
	b := newFakePeer(t)
	release := make(chan struct{})
	var inflight sync.WaitGroup
	b.set(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	})
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, func(o *Options) {
		o.ForwardWindow = 1
		o.ForwardBacklog = 1
		o.Retries = -1
	})

	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ { // one occupies the window, one waits in backlog
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			started <- struct{}{}
			c.Forward(context.Background(), "b", http.MethodGet, "/v1/stats", nil)
		}()
	}
	<-started
	<-started
	// Wait until the window slot is taken and the second caller is counted
	// as a waiter, so the third call must shed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(c.peers["b"].window) == 1 && c.peers["b"].waiters.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("window/backlog never filled: window=%d waiters=%d",
				len(c.peers["b"].window), c.peers["b"].waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err := c.Forward(context.Background(), "b", http.MethodGet, "/v1/stats", nil)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("third forward err = %v, want ErrSaturated", err)
	}
	close(release)
	inflight.Wait()
}

// TestRequestPathFailuresDemotePeer: transport errors on Forward feed the
// same liveness counter as health probes — a peer dying mid-sweep goes down
// without waiting for the poll interval.
func TestRequestPathFailuresDemotePeer(t *testing.T) {
	b := newFakePeer(t)
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, func(o *Options) {
		o.Retries = -1
	})
	b.ts.Close() // connection refused from here on

	for i := 0; i < DefaultDownAfter; i++ {
		if _, _, err := c.Forward(context.Background(), "b", http.MethodGet, "/v1/stats", nil); err == nil {
			t.Fatal("forward to a closed peer succeeded")
		}
	}
	if st := c.state("b"); st != Down {
		t.Fatalf("b state = %v after %d transport failures, want down", st, DefaultDownAfter)
	}
}

// TestClosedClusterRefusesWork: after Close, outbound paths are inert.
func TestClosedClusterRefusesWork(t *testing.T) {
	b := newFakePeer(t)
	c := newTestCluster(t, map[string]*fakePeer{"b": b}, nil)
	c.Close()
	if _, _, err := c.Forward(context.Background(), "b", http.MethodGet, "/", nil); err == nil {
		t.Fatal("Forward succeeded on a closed cluster")
	}
}
