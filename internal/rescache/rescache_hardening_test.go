package rescache

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestDiskErrorsCounted: every flavor of unusable disk entry — corrupt,
// truncated, mis-addressed — is skipped AND counted, so an operator can see
// a rotting disk tier on /metrics instead of diagnosing silent re-executes.
func TestDiskErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, 8, dir)

	// Corrupt: not JSON at all.
	if err := os.WriteFile(filepath.Join(dir, spec(8).Hash()+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncated: a valid prefix of a real entry, cut mid-value.
	if err := os.WriteFile(filepath.Join(dir, spec(16).Hash()+".json"), []byte(`{"spec":{"system":"hy`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Mis-addressed: well-formed JSON whose Spec hashes elsewhere.
	if _, _, err := c.GetOrRun(context.Background(), spec(24), fakeRun(new(int), 1)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, spec(24).Hash()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, spec(32).Hash()+".json"), good, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, filter := range []int{8, 16, 32} {
		calls := 0
		if _, hit, err := c.GetOrRun(context.Background(), spec(filter), fakeRun(&calls, 1)); hit || err != nil {
			t.Fatalf("filter %d: hit=%v err=%v, want clean miss over bad file", filter, hit, err)
		}
		if calls != 1 {
			t.Fatalf("filter %d: run executed %d times, want 1", filter, calls)
		}
	}
	if st := c.Stats(); st.DiskErrors != 3 {
		t.Fatalf("DiskErrors = %d, want 3 (corrupt + truncated + mis-addressed)", st.DiskErrors)
	}
}

// TestFillPeerCountsNeitherHitNorMiss: adopted fleet results must not skew
// the local hit rate — they are PeerFills, and the next lookup is a real
// memory hit.
func TestFillPeerCountsNeitherHitNorMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, 8, dir)
	sp := spec(8)
	res, _, err := mustNew(t, 8, "").GetOrRun(context.Background(), sp, fakeRun(new(int), 7))
	if err != nil {
		t.Fatal(err)
	}

	c.FillPeer(sp, res)
	st := c.Stats()
	if st.PeerFills != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after FillPeer: %+v, want exactly one PeerFill and untouched hit/miss counters", st)
	}
	got, hit, err := c.GetOrRun(context.Background(), sp, fakeRun(new(int), 99))
	if err != nil || !hit || got != res {
		t.Fatalf("GetOrRun after FillPeer = %+v hit=%v err=%v, want the adopted result as a hit", got, hit, err)
	}
	// And the fill persisted to disk: a fresh cache over the same dir hits.
	c2 := mustNew(t, 8, dir)
	if _, ok := c2.Get(sp); !ok {
		t.Fatal("peer fill did not reach the disk tier")
	}
}
