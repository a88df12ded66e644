package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeDaemon serves the slice of latteccd's API the client reads: it
// accepts any submission as job-000001, reports that job done with
// results, and answers /metrics with metrics.
func fakeDaemon(t *testing.T, results []runResult, metrics string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/runs/job-000001", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(jobStatus{ID: "job-000001", Status: "done", Results: results})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, metrics)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// goldenHashes is a two-run `experiments -hashes` file; it doubles as the
// batch spec through -runs-from.
const goldenHashes = `hash BO Uncompressed - 0x00000000000000b0
hash SS LATTE-CC - 0x00000000000000a1
`

func writeGolden(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte(goldenHashes), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func submitAgainst(t *testing.T, results []runResult) (string, error) {
	t.Helper()
	g := writeGolden(t)
	var out bytes.Buffer
	err := run([]string{"submit", "-addr", fakeDaemon(t, results, ""),
		"-runs-from", g, "-golden", g, "-interval", "1ms"}, &out)
	return out.String(), err
}

var (
	ssRun = runResult{Workload: "SS", Policy: "LATTE-CC", StateHash: "0x00000000000000a1"}
	boRun = runResult{Workload: "BO", Policy: "Uncompressed", StateHash: "0x00000000000000b0"}
)

// TestSubmitExactSetPasses: the full requested set, each with its
// golden hash, prints the sorted golden lines.
func TestSubmitExactSetPasses(t *testing.T) {
	out, err := submitAgainst(t, []runResult{ssRun, boRun})
	if err != nil {
		t.Fatalf("exact set: %v", err)
	}
	if out != goldenHashes {
		t.Fatalf("output:\n%s\nwant:\n%s", out, goldenHashes)
	}
}

// TestSubmitDuplicatePlusMissingFails: one run returned twice and the
// other omitted has the right line count and only golden lines, and
// still fails.
func TestSubmitDuplicatePlusMissingFails(t *testing.T) {
	_, err := submitAgainst(t, []runResult{ssRun, ssRun})
	if err == nil {
		t.Fatal("a duplicated run hiding a missing one must fail")
	}
	for _, want := range []string{"missing run BO/Uncompressed", "run SS/LATTE-CC returned 2 times"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSubmitUnrequestedRunFails: a result for a run nobody asked for
// fails even when every requested run is present once.
func TestSubmitUnrequestedRunFails(t *testing.T) {
	extra := runResult{Workload: "KM", Policy: "LATTE-CC", StateHash: "0x1"}
	_, err := submitAgainst(t, []runResult{ssRun, boRun, extra})
	if err == nil || !strings.Contains(err.Error(), "unrequested run KM/LATTE-CC") {
		t.Fatalf("unrequested run: %v", err)
	}
}

// TestSubmitHashNotInGoldenFails: the right run set with one wrong hash
// fails the golden check.
func TestSubmitHashNotInGoldenFails(t *testing.T) {
	bad := ssRun
	bad.StateHash = "0x00000000000000ff"
	_, err := submitAgainst(t, []runResult{bad, boRun})
	if err == nil || !strings.Contains(err.Error(), "not in golden set") {
		t.Fatalf("wrong hash: %v", err)
	}
}

// storeMetrics is a /metrics body with 110 runs from the store, 0 fresh
// simulations and 1 corrupt entry.
const storeMetrics = `# HELP latteccd_simulations_fresh_total x
latteccd_simulations_fresh_total 0
latteccd_simulation_cache_hits_total 0
latteccd_simulation_store_hits_total 110
latteccd_store_hits_total 110
latteccd_store_misses_total 0
latteccd_store_corrupt_total 1
`

// TestStoreThresholds: each bound passes at its limit and trips one
// past it; a daemon without store metrics fails.
func TestStoreThresholds(t *testing.T) {
	addr := fakeDaemon(t, nil, storeMetrics)
	cases := []struct {
		flags []string
		fail  string // substring of the error, "" = passes
	}{
		{[]string{"-min-hits", "110", "-max-fresh", "0", "-min-corrupt", "1"}, ""},
		{[]string{"-min-hits", "111"}, "runs served from store = 110, want >= 111"},
		{[]string{"-max-fresh", "-1"}, ""},
		{[]string{"-min-corrupt", "2"}, "corrupt entries discarded = 1, want >= 2"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(append([]string{"store", "-addr", addr}, tc.flags...), &out)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%v: unexpected failure: %v", tc.flags, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%v: error %v, want one mentioning %q", tc.flags, err, tc.fail)
		}
	}

	fresh := fakeDaemon(t, nil, strings.Replace(storeMetrics, "fresh_total 0", "fresh_total 3", 1))
	if err := run([]string{"store", "-addr", fresh, "-max-fresh", "2"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "fresh simulations = 3, want <= 2") {
		t.Errorf("max-fresh: %v", err)
	}

	memOnly := fakeDaemon(t, nil, "latteccd_simulations_fresh_total 3\n")
	if err := run([]string{"store", "-addr", memOnly}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "no result store configured") {
		t.Errorf("storeless daemon: %v", err)
	}
}

// TestMetricsGrep: every -grep must match some line; a miss fails.
func TestMetricsGrep(t *testing.T) {
	addr := fakeDaemon(t, nil, storeMetrics)
	var out bytes.Buffer
	if err := run([]string{"metrics", "-addr", addr, "-grep", "^latteccd_store_corrupt_total 1$"}, &out); err != nil {
		t.Fatalf("matching grep: %v", err)
	}
	if out.String() != storeMetrics {
		t.Fatalf("metrics body not printed verbatim:\n%s", out.String())
	}
	err := run([]string{"metrics", "-addr", addr,
		"-grep", "^latteccd_store_corrupt_total 1$", "-grep", "^latteccd_jobs_accepted_total 1$"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `no metrics line matches "^latteccd_jobs_accepted_total 1$"`) {
		t.Fatalf("missing grep: %v", err)
	}
}
