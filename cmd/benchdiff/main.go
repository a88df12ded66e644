// Command benchdiff turns `go test -bench` output into a committed JSON
// baseline (benchmark name -> ns/op, B/op, allocs/op plus domain metrics)
// and gates CI on performance regressions against the previous baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 -benchmem . | \
//	    benchdiff -out bench.json -baseline-dir . -max-regress 1.20
//
//	benchdiff -in bench.out -baseline BENCH_PR3.json   # explicit baseline
//
// With -count > 1 the minimum-ns/op run per benchmark is kept (its B/op
// and allocs/op ride along), which damps scheduler noise; domain metrics
// (speedup, ratio, ...) come from the simulator and are deterministic.
// A benchmark regresses when its ns/op — or, when both sides recorded
// them, its B/op or allocs/op — exceeds baseline * max-regress. Older
// baselines written without -benchmem simply skip the allocation gates.
// Benchmarks that appear or disappear are reported but never fail the
// gate. With no baseline available (first run) the tool just writes
// -out and succeeds.
//
// Each baseline also records the host it was measured on (CPU model,
// OS/arch, GOMAXPROCS, Go version). A comparison across hosts prints a
// warning, since its ratios then mix code and machine changes, but the
// gate still applies.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's record in the JSON baseline. BytesPerOp and
// AllocsPerOp are pointers because baselines predating the allocation
// gate (or runs without -benchmem) don't record them — nil means "not
// measured", and the gate only fires when both sides have a value.
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Host identifies the machine and toolchain a run was measured on. CPU,
// GOOS and GOARCH come from the `go test` header, GOMAXPROCS from the
// "-N" tail of the benchmark names, GoVersion from this binary's
// runtime.
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

// File is the committed baseline format. Host is nil in baselines
// recorded before it was added.
type File struct {
	Label      string           `json:"label,omitempty"`
	Host       *Host            `json:"host,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	var (
		in         = flag.String("in", "-", "bench output to read ('-' = stdin)")
		out        = flag.String("out", "", "write the parsed results to this JSON file")
		baseline   = flag.String("baseline", "", "explicit baseline JSON to compare against")
		blDir      = flag.String("baseline-dir", "", "auto-pick the newest BENCH_PR<n>.json in this directory (excluding -out)")
		maxRegress = flag.Float64("max-regress", 1.20, "fail when ns/op exceeds baseline by this factor")
		label      = flag.String("label", "", "label stored in the output JSON")
	)
	flag.Parse()

	if err := run(*in, *out, *baseline, *blDir, *maxRegress, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(in, out, baseline, blDir string, maxRegress float64, label string) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	current, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(current.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}
	current.Label = label
	current.Host.GoVersion = runtime.Version()

	// Resolve the baseline before writing -out, so a CI run that
	// overwrites the committed file still compares against it.
	var base *File
	basePath := baseline
	if basePath == "" && blDir != "" {
		basePath, err = latestBaseline(blDir, out)
		if err != nil {
			return err
		}
	}
	if basePath != "" {
		base, err = readBaseline(basePath)
		if err != nil {
			return err
		}
	}

	if out != "" {
		buf, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(current.Benchmarks))
	}

	if base == nil {
		fmt.Println("no baseline to compare against; treating this run as the first baseline")
		return nil
	}
	if w := hostWarning(basePath, base.Host, current.Host); w != "" {
		fmt.Println(w)
	}
	return compare(base, current, basePath, maxRegress)
}

// hostWarning describes how the baseline's host differs from this
// run's, or returns "" when they match. A baseline without a host
// block is reported as unknown.
func hostWarning(basePath string, base, cur *Host) string {
	if base == nil {
		return fmt.Sprintf("warning: %s records no host; ratios may reflect a machine change", basePath)
	}
	var diffs []string
	for _, f := range []struct{ name, base, cur string }{
		{"cpu", base.CPU, cur.CPU},
		{"goos", base.GOOS, cur.GOOS},
		{"goarch", base.GOARCH, cur.GOARCH},
		{"gomaxprocs", strconv.Itoa(base.GOMAXPROCS), strconv.Itoa(cur.GOMAXPROCS)},
		{"go", base.GoVersion, cur.GoVersion},
	} {
		if f.base != f.cur {
			diffs = append(diffs, fmt.Sprintf("%s %q -> %q", f.name, f.base, f.cur))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("warning: %s was recorded on a different host (%s); ratios mix code and machine changes",
		basePath, strings.Join(diffs, ", "))
}

// headerLine matches the `go test -bench` header lines that describe
// the host, e.g. "cpu: AMD EPYC 7B13".
var headerLine = regexp.MustCompile(`^(goos|goarch|cpu):\s*(.*)$`)

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkFig11Speedup/SS/LATTE-CC-8  1  123456 ns/op  1.234 speedup".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// procSuffix matches a "-<N>" name tail, the form of the GOMAXPROCS
// suffix Go appends to benchmark names when GOMAXPROCS > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// benchResult is one parsed result line: the name as printed and its
// value/unit fields.
type benchResult struct {
	name   string
	fields []string
}

// runProcSuffix returns the GOMAXPROCS suffix of one run's benchmark
// names: the "-N" tail, when every name carries the same one. Otherwise
// the tails are part of sub-benchmark names such as "on-8" (Go prints no
// suffix at GOMAXPROCS=1) and nothing is stripped. Only a run in which
// every name ends in the same "-N" of its own would be misread.
func runProcSuffix(lines []benchResult) string {
	suffix := ""
	for i, l := range lines {
		tail := procSuffix.FindString(l.name)
		if tail == "" || (i > 0 && tail != suffix) {
			return ""
		}
		suffix = tail
	}
	return suffix
}

// parseBench folds bench output into per-benchmark records, keeping the
// minimum ns/op seen across repeated -count runs, and reads the host
// from the header. Names are keyed without the run's GOMAXPROCS suffix,
// so baselines compare across core counts.
func parseBench(r io.Reader) (*File, error) {
	var lines []benchResult
	host := &Host{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if m := headerLine.FindStringSubmatch(text); m != nil {
			switch m[1] {
			case "goos":
				host.GOOS = m[2]
			case "goarch":
				host.GOARCH = m[2]
			case "cpu":
				host.CPU = m[2]
			}
			continue
		}
		m := benchLine.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		lines = append(lines, benchResult{name: m[1], fields: strings.Fields(m[2])})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	suffix := runProcSuffix(lines)
	// Go prints no suffix at GOMAXPROCS=1.
	host.GOMAXPROCS = 1
	if suffix != "" {
		host.GOMAXPROCS, _ = strconv.Atoi(suffix[1:])
	}

	out := &File{Host: host, Benchmarks: map[string]Bench{}}
	for _, l := range lines {
		name := strings.TrimPrefix(strings.TrimSuffix(l.name, suffix), "Benchmark")
		fields := l.fields
		var nsPerOp float64
		var bytesPerOp, allocsPerOp *float64
		metrics := map[string]float64{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				nsPerOp = v
			case "B/op":
				b := v
				bytesPerOp = &b
			case "allocs/op":
				a := v
				allocsPerOp = &a
			case "MB/s":
				// throughput restates ns/op; don't gate on it twice
			default:
				metrics[unit] = v
			}
		}
		if nsPerOp == 0 {
			continue
		}
		prev, seen := out.Benchmarks[name]
		if !seen || nsPerOp < prev.NsPerOp {
			if seen && len(metrics) == 0 {
				metrics = prev.Metrics
			}
			if seen && bytesPerOp == nil {
				bytesPerOp = prev.BytesPerOp
			}
			if seen && allocsPerOp == nil {
				allocsPerOp = prev.AllocsPerOp
			}
			out.Benchmarks[name] = Bench{NsPerOp: nsPerOp, BytesPerOp: bytesPerOp, AllocsPerOp: allocsPerOp, Metrics: metrics}
		}
	}
	return out, nil
}

// prNumber extracts <n> from BENCH_PR<n>.json names.
var prNumber = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// latestBaseline picks the highest-numbered BENCH_PR<n>.json in dir,
// skipping the file this run writes. Empty string means no baseline.
func latestBaseline(dir, exclude string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		if e.IsDir() || e.Name() == filepath.Base(exclude) {
			continue
		}
		m := prNumber.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if n > bestN {
			bestN, best = n, filepath.Join(dir, e.Name())
		}
	}
	return best, nil
}

func readBaseline(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &f, nil
}

// compare reports per-benchmark deltas and fails on ns/op, B/op, or
// allocs/op regressions. The allocation gates only fire when both the
// baseline and the current run recorded the metric (-benchmem).
func compare(base, current *File, basePath string, maxRegress float64) error {
	names := make([]string, 0, len(current.Benchmarks))
	for n := range current.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	var regressions []string
	for _, n := range names {
		cur := current.Benchmarks[n]
		b, ok := base.Benchmarks[n]
		if !ok {
			fmt.Printf("new       %-50s %12.0f ns/op\n", n, cur.NsPerOp)
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > maxRegress {
			status = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx allowed)",
				n, b.NsPerOp, cur.NsPerOp, ratio, maxRegress))
		}
		for _, g := range []struct {
			unit      string
			base, cur *float64
		}{
			{"B/op", b.BytesPerOp, cur.BytesPerOp},
			{"allocs/op", b.AllocsPerOp, cur.AllocsPerOp},
		} {
			if g.base == nil || g.cur == nil {
				continue // one side wasn't run with -benchmem
			}
			// A zero baseline gates on any allocation at all: once a
			// path is proven allocation-free, a single alloc/op is a
			// regression no ratio would catch.
			if (*g.base == 0 && *g.cur > 0) || (*g.base > 0 && *g.cur / *g.base > maxRegress) {
				status = "REGRESSED"
				regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f %s (> %.2fx allowed)",
					n, *g.base, *g.cur, g.unit, maxRegress))
			}
		}
		fmt.Printf("%-9s %-50s %12.0f ns/op  (baseline %.0f, %.2fx)\n", status, n, cur.NsPerOp, b.NsPerOp, ratio)
	}
	baseNames := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		baseNames = append(baseNames, n)
	}
	sort.Strings(baseNames)
	for _, n := range baseNames {
		if _, ok := current.Benchmarks[n]; !ok {
			fmt.Printf("removed   %s\n", n)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed >%.0f%% vs %s:\n  %s",
			len(regressions), (maxRegress-1)*100, basePath, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("all %d benchmarks within %.2fx of %s\n", len(names), maxRegress, basePath)
	return nil
}
