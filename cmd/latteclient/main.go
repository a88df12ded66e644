// Command latteclient is the CI-facing client for latteccd: a small,
// dependency-free replacement for the curl + python3 JSON poking the
// daemon-smoke workflow used to inline.
//
// Commands:
//
//	latteclient ready   -addr URL [-timeout 30s]
//	    Poll /readyz until it answers 200.
//
//	latteclient submit  -addr URL (-runs W:P,... | -runs-from FILE)
//	                    [-golden FILE] [-timeout 5m] [-interval 200ms]
//	    Submit runs as one batch, poll to completion, and print one
//	    sorted "hash <workload> <policy> - 0x<state-hash>" line per run
//	    — byte-compatible with `experiments -hashes` output. -runs-from
//	    reads runs out of such a file, so a golden hash file doubles as
//	    the batch spec. The job must return every requested run exactly
//	    once; -golden additionally asserts every printed line appears in
//	    FILE.
//
//	latteclient metrics -addr URL [-grep REGEXP]...
//	    Fetch /metrics, print it, and fail unless every -grep pattern
//	    matches at least one line.
//
//	latteclient store   -addr URL [-min-hits N] [-max-fresh N] [-min-corrupt N]
//	    Fetch /metrics, print a result-store counter summary, and assert
//	    bounds on it: at least -min-hits store hits, at most -max-fresh
//	    fresh simulations, at least -min-corrupt discarded corrupt
//	    entries (each check skipped when its flag is negative, the
//	    default). Fails if the daemon has no store configured.
//
// Exit status 0 on success, 1 on any failure (failed job, missing
// golden line, timeout), 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "latteclient: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line that names no known command or
// carries a bad flag; the message has already been printed.
var errUsage = errors.New("usage")

// parseFlags parses a command's flags, turning a bad flag into errUsage.
// A -h request comes back as flag.ErrHelp, which stops the command.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// run dispatches one command line, writing command output to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		usage()
		return errUsage
	}
	switch args[0] {
	case "ready":
		return cmdReady(args[1:])
	case "submit":
		return cmdSubmit(args[1:], stdout)
	case "metrics":
		return cmdMetrics(args[1:], stdout)
	case "store":
		return cmdStore(args[1:], stdout)
	case "-h", "-help", "--help", "help":
		usage()
		return nil
	default:
		fmt.Fprintf(os.Stderr, "latteclient: unknown command %q\n", args[0])
		usage()
		return errUsage
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: latteclient {ready|submit|metrics|store} -addr URL [flags]")
}

// client is shared by every command: plain HTTP with a bounded
// per-request timeout; loops provide their own deadlines.
var client = &http.Client{Timeout: 15 * time.Second}

// --- ready ------------------------------------------------------------

func cmdReady(args []string) error {
	fs := flag.NewFlagSet("ready", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8437", "daemon base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "give up after this long")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	deadline := time.Now().Add(*timeout)
	for {
		if probeReady(*addr) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", *addr, *timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func probeReady(addr string) bool {
	resp, err := client.Get(addr + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// --- submit -----------------------------------------------------------

// runSpec is one (workload, policy) pair; the zero variant is the only
// one the hash-line format and the CI gates use.
type runSpec struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
}

// runResult is one completed run as the client reads it.
type runResult struct {
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	StateHash string `json:"state_hash"`
}

// jobStatus is the subset of the daemon's job view the client reads.
type jobStatus struct {
	ID      string      `json:"id"`
	Status  string      `json:"status"`
	Error   string      `json:"error,omitempty"`
	Results []runResult `json:"results,omitempty"`
}

func cmdSubmit(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8437", "daemon base URL")
	runsArg := fs.String("runs", "", "comma-separated WORKLOAD:POLICY pairs, e.g. SS:LATTE-CC,BO:Uncompressed")
	runsFrom := fs.String("runs-from", "", "read runs from an `experiments -hashes` style file")
	golden := fs.String("golden", "", "fail unless every emitted hash line appears in this file")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall completion deadline")
	interval := fs.Duration("interval", 200*time.Millisecond, "status poll cadence")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	runs, err := parseRuns(*runsArg, *runsFrom)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no runs: give -runs or -runs-from")
	}

	deadline := time.Now().Add(*timeout)
	id, err := submitBatch(*addr, runs, deadline)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "latteclient: submitted %d run(s) as job %s\n", len(runs), id)

	results, err := pollJob(*addr, id, deadline, *interval)
	if err != nil {
		return err
	}
	if err := checkCoverage(runs, results); err != nil {
		return err
	}
	lines := make([]string, 0, len(results))
	for _, r := range results {
		lines = append(lines, fmt.Sprintf("hash %s %s - %s", r.Workload, r.Policy, r.StateHash))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if *golden != "" {
		if err := checkGolden(lines, *golden); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "latteclient: all %d hash lines match %s\n", len(lines), *golden)
	}
	return nil
}

// checkCoverage asserts the job returned every requested run exactly
// once and nothing else: a result count that merely equals the request
// count would let one run returned twice hide another that is missing.
func checkCoverage(runs []runSpec, results []runResult) error {
	seen := make(map[runSpec]int, len(runs))
	for _, r := range runs {
		seen[r] = 0
	}
	var problems []string
	for _, r := range results {
		k := runSpec{Workload: r.Workload, Policy: r.Policy}
		if _, ok := seen[k]; !ok {
			problems = append(problems, fmt.Sprintf("unrequested run %s/%s", k.Workload, k.Policy))
			continue
		}
		seen[k]++
	}
	for _, r := range runs {
		switch n := seen[r]; {
		case n == 0:
			problems = append(problems, fmt.Sprintf("missing run %s/%s", r.Workload, r.Policy))
		case n > 1:
			problems = append(problems, fmt.Sprintf("run %s/%s returned %d times", r.Workload, r.Policy, n))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("job returned %d result(s) for %d requested run(s): %s",
			len(results), len(runs), strings.Join(problems, "; "))
	}
	return nil
}

// parseRuns merges the -runs list and the -runs-from file.
func parseRuns(runsArg, runsFrom string) ([]runSpec, error) {
	var runs []runSpec
	seen := map[runSpec]bool{}
	add := func(r runSpec) {
		if !seen[r] {
			seen[r] = true
			runs = append(runs, r)
		}
	}
	if runsArg != "" {
		for _, tok := range strings.Split(runsArg, ",") {
			w, p, ok := strings.Cut(strings.TrimSpace(tok), ":")
			if !ok || w == "" || p == "" {
				return nil, fmt.Errorf("bad -runs entry %q (want WORKLOAD:POLICY)", tok)
			}
			add(runSpec{Workload: w, Policy: p})
		}
	}
	if runsFrom != "" {
		data, err := os.ReadFile(runsFrom)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			// "hash <workload> <policy> <variant-tag> 0x<state-hash>"
			f := strings.Fields(line)
			if len(f) != 5 || f[0] != "hash" {
				return nil, fmt.Errorf("%s: unparseable hash line %q", runsFrom, line)
			}
			if f[3] != "-" {
				return nil, fmt.Errorf("%s: run %s/%s has a non-zero variant %q; the job API submits zero variants only", runsFrom, f[1], f[2], f[3])
			}
			add(runSpec{Workload: f[1], Policy: f[2]})
		}
	}
	return runs, nil
}

// submitBatch POSTs one job, retrying 429/503 answers (queue pressure)
// until the deadline.
func submitBatch(addr string, runs []runSpec, deadline time.Time) (string, error) {
	body, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		return "", err
	}
	for {
		resp, err := client.Post(addr+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(payload, &ack); err != nil || ack.ID == "" {
				return "", fmt.Errorf("bad submit ack: %s", strings.TrimSpace(string(payload)))
			}
			return ack.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if time.Now().After(deadline) {
				return "", fmt.Errorf("submit still answers %d at deadline: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
			}
			time.Sleep(500 * time.Millisecond)
		default:
			return "", fmt.Errorf("submit rejected with %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
		}
	}
}

// pollJob polls one job until it is terminal, returning its results
// when it is done and failing fast when it failed.
func pollJob(addr, id string, deadline time.Time, interval time.Duration) ([]runResult, error) {
	for {
		// A failed status fetch is treated as transient; the deadline
		// bounds it.
		if st, err := fetchStatus(addr, id); err == nil {
			switch st.Status {
			case "done":
				return st.Results, nil
			case "failed":
				return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still pending at deadline", id)
		}
		time.Sleep(interval)
	}
}

func fetchStatus(addr, id string) (jobStatus, error) {
	resp, err := client.Get(addr + "/v1/runs/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return jobStatus{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

// checkGolden asserts every line appears verbatim in the golden file.
func checkGolden(lines []string, goldenPath string) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			want[l] = true
		}
	}
	for _, l := range lines {
		if !want[l] {
			return fmt.Errorf("hash line not in golden set %s: %s", goldenPath, l)
		}
	}
	return nil
}

// --- metrics ----------------------------------------------------------

// grepList collects repeated -grep flags.
type grepList []string

func (g *grepList) String() string     { return strings.Join(*g, ", ") }
func (g *grepList) Set(s string) error { *g = append(*g, s); return nil }

// fetchMetrics returns the body of addr's /metrics.
func fetchMetrics(addr string) ([]byte, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics answered %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// --- store ------------------------------------------------------------

// cmdStore reads the daemon's result-store counters off /metrics and
// asserts bounds on them. It is the CI hook for the warm-restart gate:
// "the second pass served everything from disk" becomes
// `latteclient store -min-hits N -max-fresh 0` instead of fragile greps.
func cmdStore(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("store", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8437", "daemon base URL")
	minHits := fs.Int64("min-hits", -1, "fail if runs served from the store < N (-1 = no check)")
	maxFresh := fs.Int64("max-fresh", -1, "fail if fresh simulations > N (-1 = no check)")
	minCorrupt := fs.Int64("min-corrupt", -1, "fail if corrupt entries discarded < N (-1 = no check)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	data, err := fetchMetrics(*addr)
	if err != nil {
		return err
	}

	vals := map[string]int64{}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		vals[f[0]] = v
	}
	if _, ok := vals["latteccd_store_hits_total"]; !ok {
		return fmt.Errorf("%s has no result store configured (no latteccd_store_* metrics)", *addr)
	}

	storeHits := vals["latteccd_simulation_store_hits_total"]
	fresh := vals["latteccd_simulations_fresh_total"]
	corrupt := vals["latteccd_store_corrupt_total"]
	fmt.Fprintf(stdout, "store: runs-from-store=%d fresh-sims=%d mem-hits=%d\n",
		storeHits, fresh, vals["latteccd_simulation_cache_hits_total"])
	fmt.Fprintf(stdout, "store: disk hits=%d misses=%d corrupt=%d evictions=%d saves=%d entries=%d bytes=%d\n",
		vals["latteccd_store_hits_total"], vals["latteccd_store_misses_total"], corrupt,
		vals["latteccd_store_evictions_total"], vals["latteccd_store_saves_total"],
		vals["latteccd_store_entries"], vals["latteccd_store_bytes"])

	if *minHits >= 0 && storeHits < *minHits {
		return fmt.Errorf("runs served from store = %d, want >= %d", storeHits, *minHits)
	}
	if *maxFresh >= 0 && fresh > *maxFresh {
		return fmt.Errorf("fresh simulations = %d, want <= %d", fresh, *maxFresh)
	}
	if *minCorrupt >= 0 && corrupt < *minCorrupt {
		return fmt.Errorf("corrupt entries discarded = %d, want >= %d", corrupt, *minCorrupt)
	}
	return nil
}

func cmdMetrics(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8437", "daemon base URL")
	var greps grepList
	fs.Var(&greps, "grep", "regexp that must match at least one metrics line (repeatable)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	data, err := fetchMetrics(*addr)
	if err != nil {
		return err
	}
	stdout.Write(data)
	lines := strings.Split(string(data), "\n")
	for _, expr := range greps {
		re, err := regexp.Compile(expr)
		if err != nil {
			return fmt.Errorf("bad -grep %q: %v", expr, err)
		}
		found := false
		for _, l := range lines {
			if re.MatchString(l) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no metrics line matches %q", expr)
		}
	}
	return nil
}
