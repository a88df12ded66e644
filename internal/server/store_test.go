package server

import (
	"os"
	"path/filepath"
	"testing"

	"lattecc/internal/resultstore"
)

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func storeBatch() SubmitRequest {
	return SubmitRequest{Runs: []RunSpec{
		{Workload: "SS", Policy: "LATTE-CC"},
		{Workload: "SS", Policy: "Uncompressed"},
		{Workload: "BO", Policy: "Uncompressed"},
	}}
}

// TestDaemonWarmRestartStoreParity is the daemon-level restart contract:
// a second daemon over the same store directory serves the identical
// StateHashes with zero fresh simulations.
func TestDaemonWarmRestartStoreParity(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{Store: openStore(t, dir)})
	cold := waitJob(t, ts1.URL, submit(t, ts1.URL, storeBatch()).ID)
	if cold.Status != string(stateDone) {
		t.Fatalf("cold job: %+v", cold)
	}
	if got := suiteCounters(s1); got.fresh != 3 || got.store != 0 {
		t.Fatalf("cold pass counters: %+v", got)
	}

	s2, ts2 := newTestServer(t, Config{Store: openStore(t, dir)})
	warm := waitJob(t, ts2.URL, submit(t, ts2.URL, storeBatch()).ID)
	if warm.Status != string(stateDone) {
		t.Fatalf("warm job: %+v", warm)
	}
	for i := range cold.Results {
		if cold.Results[i].StateHash != warm.Results[i].StateHash {
			t.Fatalf("run %d: warm hash %s != cold %s",
				i, warm.Results[i].StateHash, cold.Results[i].StateHash)
		}
	}
	if got := suiteCounters(s2); got.fresh != 0 || got.store != 3 {
		t.Fatalf("warm pass must serve everything from the store: %+v", got)
	}
}

// TestDaemonCorruptEntryResimulates corrupts one entry between daemon
// generations: the restarted daemon must discard it, re-simulate that
// one run to the same hash, and serve the rest from the store.
func TestDaemonCorruptEntryResimulates(t *testing.T) {
	dir := t.TempDir()

	_, ts1 := newTestServer(t, Config{Store: openStore(t, dir)})
	cold := waitJob(t, ts1.URL, submit(t, ts1.URL, storeBatch()).ID)

	ents, err := filepath.Glob(filepath.Join(dir, "*.lcr"))
	if err != nil || len(ents) != 3 {
		t.Fatalf("store entries: %v (err=%v)", ents, err)
	}
	if err := os.Truncate(ents[0], 40); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Store: openStore(t, dir)})
	warm := waitJob(t, ts2.URL, submit(t, ts2.URL, storeBatch()).ID)
	for i := range cold.Results {
		if cold.Results[i].StateHash != warm.Results[i].StateHash {
			t.Fatalf("run %d: hash diverged after corruption", i)
		}
	}
	if got := suiteCounters(s2); got.fresh != 1 || got.store != 2 {
		t.Fatalf("exactly the corrupted entry must re-simulate: %+v", got)
	}
	if c := s2.cfg.Store.Counters(); c.Corrupt != 1 {
		t.Fatalf("corrupt counter: %+v", c)
	}
}

// suiteCounters sums the harness-level counters across resident suites.
type suiteCountersSnap struct {
	fresh, mem, store uint64
}

func suiteCounters(s *Server) suiteCountersSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out suiteCountersSnap
	for _, st := range s.suites {
		out.fresh += st.Simulations()
		out.mem += st.CacheHits()
		out.store += st.StoreHits()
	}
	return out
}
