package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func parse(t *testing.T, out string) *File {
	t.Helper()
	f, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func keys(f *File) string {
	var ks []string
	for k := range f.Benchmarks {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

// TestParseBench: the minimum ns/op run wins and carries its B/op and
// allocs/op; domain metrics are kept; MB/s and non-result lines are
// ignored.
func TestParseBench(t *testing.T) {
	f := parse(t, `goos: linux
BenchmarkTab1Codecs/BDI   	 100	  2000 ns/op	  64.00 MB/s	 1.50 ratio	 16 B/op	 1 allocs/op
BenchmarkTab1Codecs/BDI   	 100	  1500 ns/op	  85.00 MB/s	 1.50 ratio	 32 B/op	 2 allocs/op
BenchmarkTab1Codecs/BDI   	 100	  1800 ns/op	  70.00 MB/s	 1.50 ratio	  8 B/op	 1 allocs/op
BenchmarkFig11Speedup/SS/LATTE-CC 	 1	 9000 ns/op	 1.23 speedup
PASS
ok  	lattecc	3.2s
`)
	if got := keys(f); got != "Fig11Speedup/SS/LATTE-CC Tab1Codecs/BDI" {
		t.Fatalf("keys = %q", got)
	}
	b := f.Benchmarks["Tab1Codecs/BDI"]
	if b.NsPerOp != 1500 || b.BytesPerOp == nil || *b.BytesPerOp != 32 || *b.AllocsPerOp != 2 {
		t.Fatalf("min run not kept whole: %+v", b)
	}
	if b.Metrics["ratio"] != 1.5 || len(b.Metrics) != 1 {
		t.Fatalf("metrics = %v, want only ratio", b.Metrics)
	}
	if s := f.Benchmarks["Fig11Speedup/SS/LATTE-CC"]; s.BytesPerOp != nil || s.Metrics["speedup"] != 1.23 {
		t.Fatalf("run without -benchmem: %+v", s)
	}
}

// TestKeyIndependentOfGOMAXPROCS: the same benches key identically when
// run at GOMAXPROCS=1 (no suffix) and 8 ("-8" on every line), including
// a sub-benchmark whose own name ends in "-8".
func TestKeyIndependentOfGOMAXPROCS(t *testing.T) {
	one := parse(t, `BenchmarkAblationDecompBuffer/off 	 1	 100 ns/op
BenchmarkAblationDecompBuffer/on-8 	 1	 100 ns/op
BenchmarkFig11Speedup/SS/LATTE-CC 	 1	 100 ns/op
`)
	eight := parse(t, `BenchmarkAblationDecompBuffer/off-8 	 1	 100 ns/op
BenchmarkAblationDecompBuffer/on-8-8 	 1	 100 ns/op
BenchmarkFig11Speedup/SS/LATTE-CC-8 	 1	 100 ns/op
`)
	want := "AblationDecompBuffer/off AblationDecompBuffer/on-8 Fig11Speedup/SS/LATTE-CC"
	if got := keys(one); got != want {
		t.Errorf("GOMAXPROCS=1 keys = %q, want %q", got, want)
	}
	if got := keys(eight); got != want {
		t.Errorf("GOMAXPROCS=8 keys = %q, want %q", got, want)
	}
}

func ptr(v float64) *float64 { return &v }

// TestCompareGate: ns/op and allocation regressions beyond the factor
// fail; improvements, new and removed benches, and one-sided -benchmem
// data do not; a zero-allocation baseline fails on any allocation.
func TestCompareGate(t *testing.T) {
	base := &File{Benchmarks: map[string]Bench{
		"A":    {NsPerOp: 100, BytesPerOp: ptr(1000), AllocsPerOp: ptr(10)},
		"Zero": {NsPerOp: 100, BytesPerOp: ptr(0), AllocsPerOp: ptr(0)},
		"Old":  {NsPerOp: 100},
		"Gone": {NsPerOp: 100},
	}}
	cases := []struct {
		name string
		cur  map[string]Bench
		fail string // substring of the error, "" = passes
	}{
		{"within", map[string]Bench{"A": {NsPerOp: 119, BytesPerOp: ptr(1100), AllocsPerOp: ptr(11)}}, ""},
		{"faster", map[string]Bench{"A": {NsPerOp: 10}}, ""},
		{"new bench", map[string]Bench{"B": {NsPerOp: 1e9}}, ""},
		{"one-sided benchmem", map[string]Bench{"Old": {NsPerOp: 100, BytesPerOp: ptr(1e9)}}, ""},
		{"slower", map[string]Bench{"A": {NsPerOp: 121}}, "A: 100 -> 121 ns/op"},
		{"more bytes", map[string]Bench{"A": {NsPerOp: 100, BytesPerOp: ptr(1300), AllocsPerOp: ptr(10)}}, "B/op"},
		{"more allocs", map[string]Bench{"A": {NsPerOp: 100, BytesPerOp: ptr(1000), AllocsPerOp: ptr(13)}}, "allocs/op"},
		{"first alloc", map[string]Bench{"Zero": {NsPerOp: 100, BytesPerOp: ptr(0), AllocsPerOp: ptr(1)}}, "Zero: 0 -> 1 allocs/op"},
	}
	for _, tc := range cases {
		err := compare(base, &File{Benchmarks: tc.cur}, "BENCH_PR1.json", 1.20)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: unexpected failure: %v", tc.name, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.fail)
		}
	}
}

// TestLatestBaseline picks the highest PR number and skips the output
// file being written.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"BENCH_PR3.json", "BENCH_PR10.json", "BENCH_PR9.json", "BENCH_PRx.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte(`{"benchmarks":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir, "")
	if err != nil || filepath.Base(got) != "BENCH_PR10.json" {
		t.Fatalf("latestBaseline = %q, %v; want BENCH_PR10.json", got, err)
	}
	got, _ = latestBaseline(dir, filepath.Join(dir, "BENCH_PR10.json"))
	if filepath.Base(got) != "BENCH_PR9.json" {
		t.Fatalf("excluding the output: %q, want BENCH_PR9.json", got)
	}
}

// TestRunWritesAndGates exercises the command end to end: a first run
// writes the baseline, a regressed second run fails against it.
func TestRunWritesAndGates(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	write := func(ns string) {
		if err := os.WriteFile(in, []byte("BenchmarkX-4 \t 1\t "+ns+" ns/op\nBenchmarkY-4 \t 1\t 50 ns/op\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("100")
	if err := run(in, filepath.Join(dir, "BENCH_PR1.json"), "", dir, 1.2, "first"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	base, err := readBaseline(filepath.Join(dir, "BENCH_PR1.json"))
	if err != nil || base.Label != "first" || base.Benchmarks["X"].NsPerOp != 100 {
		t.Fatalf("written baseline %+v, %v", base, err)
	}
	write("200")
	if err := run(in, filepath.Join(dir, "BENCH_PR2.json"), "", dir, 1.2, ""); err == nil ||
		!strings.Contains(err.Error(), "X: 100 -> 200 ns/op") {
		t.Fatalf("regressed run: %v", err)
	}
}

// benchHeader is the host header `go test -bench` prints before its
// result lines.
const benchHeader = `goos: linux
goarch: amd64
pkg: lattecc
cpu: AMD EPYC 7B13
`

// TestParseHost reads CPU, OS and arch from the header and GOMAXPROCS
// from the names' shared "-N" tail (none means 1).
func TestParseHost(t *testing.T) {
	f := parse(t, benchHeader+"BenchmarkX-4 \t 1\t 100 ns/op\nBenchmarkY-4 \t 1\t 50 ns/op\n")
	want := Host{CPU: "AMD EPYC 7B13", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4}
	if f.Host == nil || *f.Host != want {
		t.Fatalf("host = %+v, want %+v", f.Host, want)
	}
	one := parse(t, benchHeader+"BenchmarkAblationDecompBuffer/on-8 \t 1\t 100 ns/op\nBenchmarkX \t 1\t 100 ns/op\n")
	if one.Host.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed run: GOMAXPROCS = %d, want 1", one.Host.GOMAXPROCS)
	}
}

// TestHostRoundTrip: the host block survives a write and a read, and
// carries this binary's Go version.
func TestHostRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(benchHeader+"BenchmarkX-2 \t 1\t 100 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_PR1.json")
	if err := run(in, out, "", "", 1.2, ""); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(out)
	if err != nil {
		t.Fatal(err)
	}
	want := Host{CPU: "AMD EPYC 7B13", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, GoVersion: runtime.Version()}
	if got.Host == nil || *got.Host != want {
		t.Fatalf("read back host %+v, want %+v", got.Host, want)
	}
}

// TestCrossHostWarns: a baseline from another host, or with no host
// block, draws a warning naming what differs, and the gate still passes
// a run within bounds.
func TestCrossHostWarns(t *testing.T) {
	cur := &Host{CPU: "AMD EPYC 7B13", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	same := *cur
	if w := hostWarning("BENCH_PR1.json", &same, cur); w != "" {
		t.Errorf("same host warned: %s", w)
	}
	other := *cur
	other.CPU, other.GOMAXPROCS = "Intel Xeon", 8
	w := hostWarning("BENCH_PR1.json", &other, cur)
	for _, want := range []string{"different host", `cpu "Intel Xeon" -> "AMD EPYC 7B13"`, `gomaxprocs "8" -> "2"`} {
		if !strings.Contains(w, want) {
			t.Errorf("warning %q does not mention %q", w, want)
		}
	}
	if strings.Contains(w, "goos") {
		t.Errorf("warning names a field that matches: %q", w)
	}
	if w := hostWarning("BENCH_PR1.json", nil, cur); !strings.Contains(w, "records no host") {
		t.Errorf("hostless baseline: %q", w)
	}

	dir := t.TempDir()
	base := `{"host":{"cpu":"Intel Xeon","goos":"linux","goarch":"amd64","gomaxprocs":8,"go_version":"go1.20"},` +
		`"benchmarks":{"X":{"ns_per_op":100}}}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_PR1.json"), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(benchHeader+"BenchmarkX-2 \t 1\t 110 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, "", "", dir, 1.2, ""); err != nil {
		t.Fatalf("cross-host run within bounds must pass: %v", err)
	}
}
