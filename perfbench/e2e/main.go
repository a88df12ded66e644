// Command e2e is the end-to-end half of the lattecc benchmark. It drives
// the system from outside, as a user would: in-process simulations
// through the lattecc facade (each round in a fresh child process, so
// set-up and memory are the process's own), and the built latteccd over
// HTTP. It imports only the facade; per-layer timing that reaches into
// lattecc/internal lives in perfbench/layers.
// Host times are reported at the speed of a reference loop timed beside
// them (benchkit/hostspeed.go), so host-speed drift cancels out.
//
// Usage (from the root of a lattecc checkout, normally via
// perfbench/run.sh, which builds this program and latteccd first):
//
//	e2e --workload sc-adaptive --seed 1 --seconds 20 --trace 0
//	e2e compare old.json new.json      # ratio per metric, warns across hosts
//
// The last line of standard output is the result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"lattecc"
	"lattecc/perfbench/benchkit"
)

const (
	// deadline bounds one benchmark run; every child process is killed
	// and waited for when it expires.
	deadline = 170 * time.Second
	// setupProbes is how many extra processes set up and re-simulate one
	// cheap run (for the daemon: start cold and stop), so setup_s is a
	// median, not one sample.
	setupProbes = 9
	// warmSamples is the minimum number of warm-request samples per
	// process: enough that p90 has benchkit.MinBeyond samples beyond it.
	warmSamples = 120
	// warmBatch is how many back-to-back cache-served Suite.Run calls one
	// in-process warm sample averages (one call is well under a
	// microsecond, too close to the clock's own cost to time alone).
	warmBatch = 64
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload name (sc-adaptive, cinsens-bdi, daemon-fig11)")
		seed     = fs.Int64("seed", 1, "seed: daemon submission order and the repeat-check pick")
		seconds  = fs.Int("seconds", 20, "measure as many whole rounds as fit in this many seconds (at least one)")
		trace    = fs.Int("trace", 0, "must be 0: the traced run is perfbench/layers")
		latteccd = fs.String("latteccd", ".bench_build/bin/latteccd", "latteccd binary (daemon workloads)")
		outDir   = fs.String("out", ".bench_build/results", "directory for the per-run results file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 {
		fmt.Fprintln(os.Stderr, "e2e: --trace 1 is served by perfbench/layers")
		return 2
	}
	w, err := benchkit.Lookup(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, root: root}
	var metrics map[string]benchkit.Metric
	if w.Daemon {
		metrics, err = b.daemon(ctx, *latteccd)
	} else {
		metrics, err = b.inProcess(ctx)
	}
	if err != nil {
		// A run that could not measure prints no result.
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.Name, err)
		for _, e := range b.checks.Errors {
			fmt.Fprintf(os.Stderr, "e2e: check failed: %s\n", e)
		}
		return 1
	}
	for _, e := range b.checks.Errors {
		fmt.Fprintf(os.Stderr, "e2e: check failed: %s\n", e)
	}
	rec := benchkit.Record{
		Workload: w.Name, Seed: *seed,
		Host:   benchkit.DescribeHost(root),
		Result: b.checks.Result(metrics),
		Notes:  b.notes,
	}
	if err := benchkit.Emit(os.Stdout, os.Stderr, *outDir, rec); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	return 0
}

// bench carries one run's settings and its accumulated checks and notes.
type bench struct {
	w      benchkit.Workload
	seed   int64
	budget time.Duration
	root   string
	ref    *benchkit.RefLoop // host-speed reference of this process (daemon workloads)
	checks benchkit.Checks
	notes  []string
	// noTerminal counts daemon event streams that closed without their
	// terminal event (see benchkit.JobResult.NoTerminalEvent).
	noTerminal int
}

// fits reports whether to start one more round: whether at least half
// of a round, as long as the average round so far, is left of the time
// budget. A run thus measures whole rounds for about --seconds (it
// overruns by at most half a round), and always at least one round.
func (b *bench) fits(start time.Time, rounds int) bool {
	spent := time.Since(start)
	return spent+spent/time.Duration(2*rounds) <= b.budget
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// percentiles sets prefix_p50_ms and prefix_p90_ms: each percentile is
// taken within every group (a pass, a round or a process), and the
// interquartile mean over groups is reported, so one disturbed group
// cannot move it much. tail says whether each group is a sampled
// distribution, whose p90 must have benchkit.MinBeyond samples beyond
// it, or a fixed enumerated run set, whose p90 is an order statistic of
// that set.
func (b *bench) percentiles(m map[string]benchkit.Metric, prefix string, groups [][]float64, tail bool) {
	var p50s, p90s []float64
	n, minBeyond := 0, -1
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		p50, _ := benchkit.Percentile(g, 50)
		p90, beyond := benchkit.Percentile(g, 90)
		if tail {
			_, err := benchkit.TailPercentile(g, 90)
			b.checks.Check(err == nil, "%s: %v", prefix, err)
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		n += len(g)
		if minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	b.checks.Check(len(p50s) > 0, "%s: no samples", prefix)
	m[prefix+"_p50_ms"] = benchkit.Metric{Value: benchkit.MidMean(p50s), Unit: "ms"}
	m[prefix+"_p90_ms"] = benchkit.Metric{Value: benchkit.MidMean(p90s), Unit: "ms"}
	b.notef("%s: %d samples in %d groups, at least %d beyond p90 in each", prefix, n, len(p50s), minBeyond)
}

// --- in-process workloads ------------------------------------------------

// runOut is what a child reports for one simulation.
type runOut struct {
	Run    benchkit.Run `json:"run"`
	Err    string       `json:"err,omitempty"`
	WallNS int64        `json:"wall_ns"`
	Insts  uint64       `json:"insts"`
	Cycles uint64       `json:"cycles"`
	Hash   uint64       `json:"hash"`
}

// childOut is a child's full report. RefNS holds the host-speed
// reference readings: one before the first run, one after each run, and
// one after the warm samples; their mean scales every time the child
// measured.
type childOut struct {
	Runs   []runOut `json:"runs"`
	WarmNS []int64  `json:"warm_ns"`
	RefNS  []int64  `json:"ref_ns"`
}

// ref is the child's mean reference reading.
func (o childOut) ref() time.Duration {
	rs := make([]time.Duration, len(o.RefNS))
	for i, r := range o.RefNS {
		rs[i] = time.Duration(r)
	}
	return benchkit.MeanRef(rs)
}

// child is one finished child process as the parent saw it.
type child struct {
	out     childOut
	setup   time.Duration
	peakRSS float64 // MB
}

func (b *bench) inProcess(ctx context.Context) (map[string]benchkit.Metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := make([]int, len(b.w.Runs))
	for i := range all {
		all[i] = i
	}
	start := time.Now()
	var rounds []child
	for len(rounds) == 0 || b.fits(start, len(rounds)) {
		c, err := b.spawn(ctx, self, all)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, c)
	}
	// Extra processes: one re-simulates a seed-chosen run, the rest the
	// round's cheapest run. Each is a fresh process, so its set-up is a
	// setup_s sample, its result a repeat check, and its warm samples
	// spread the warm path over processes. A process that holds one
	// cached run times one map slot, and that costs about a third more
	// in some processes than in others (the map's hash seed and memory
	// layout differ), which is why groups are combined by their
	// interquartile mean.
	cheapest := 0
	for i, r := range rounds[0].out.Runs {
		if r.WallNS < rounds[0].out.Runs[cheapest].WallNS {
			cheapest = i
		}
	}
	picks := []int{rand.New(rand.NewSource(b.seed)).Intn(len(b.w.Runs))}
	for i := 0; i < setupProbes; i++ {
		picks = append(picks, cheapest)
	}
	var extra []child
	for _, p := range picks {
		c, err := b.spawn(ctx, self, []int{p})
		if err != nil {
			return nil, err
		}
		extra = append(extra, c)
	}
	var setups, refs []float64
	for _, c := range append(append([]child(nil), rounds...), extra...) {
		if len(c.out.RefNS) == 0 {
			return nil, fmt.Errorf("child reported no reference readings")
		}
		setups = append(setups, benchkit.AtRef(c.setup, c.out.ref()))
		for _, r := range c.out.RefNS {
			refs = append(refs, float64(r)/1e6)
		}
	}

	// Correctness: every run succeeded, repeats agree bit for bit.
	first := map[benchkit.Run]uint64{}
	cycles := map[benchkit.Run]uint64{}
	var jobMS, warmMS [][]float64 // per round; per process
	var rates, rawRates, rss []float64
	for ri, c := range rounds {
		var lat []float64
		var insts uint64
		var wall, rawWall float64 // seconds: at the reference speed, and as measured
		for _, r := range c.out.Runs {
			b.checks.Check(r.Err == "" && r.Insts > 0 && r.Cycles > 0, "%s/%s round %d: err=%q insts=%d", r.Run.Bench, r.Run.Policy, ri, r.Err, r.Insts)
			if h, ok := first[r.Run]; ok {
				b.checks.Check(h == r.Hash, "%s/%s: StateHash %#x in round %d, %#x in round 0", r.Run.Bench, r.Run.Policy, r.Hash, ri, h)
			} else {
				first[r.Run] = r.Hash
				cycles[r.Run] = r.Cycles
			}
			s := benchkit.AtRef(time.Duration(r.WallNS), c.out.ref())
			insts += r.Insts
			wall += s
			rawWall += float64(r.WallNS) / 1e9
			lat = append(lat, s*1e3)
		}
		jobMS = append(jobMS, lat)
		b.checks.Check(len(c.out.Runs) == len(b.w.Runs), "round %d reported %d of %d runs", ri, len(c.out.Runs), len(b.w.Runs))
		warmMS = append(warmMS, c.out.warmMillis())
		if wall > 0 {
			rates = append(rates, float64(insts)/wall/1e6)
			rawRates = append(rawRates, float64(insts)/rawWall/1e6)
		}
		rss = append(rss, c.peakRSS)
	}
	for _, c := range extra {
		warmMS = append(warmMS, c.out.warmMillis())
		for _, r := range c.out.Runs {
			b.checks.Check(r.Err == "" && r.Hash == first[r.Run], "repeat of %s/%s in a fresh process: StateHash %#x, want %#x (err %q)", r.Run.Bench, r.Run.Policy, r.Hash, first[r.Run], r.Err)
		}
	}
	speedup := benchkit.Speedup(cycles, b.w.Base, b.w.Test)
	b.checks.Check(speedup > 0 && !math.IsInf(speedup, 0), "sim_speedup = %v", speedup)

	m := map[string]benchkit.Metric{
		"setup_s":         {Value: benchkit.Median(setups), Unit: "s"},
		"sim_minst_per_s": {Value: benchkit.Median(rates), Unit: "Minst/s"},
		"peak_rss_mb":     {Value: benchkit.Median(rss), Unit: "MB"},
		"sim_speedup":     {Value: speedup, Unit: "x"},
	}
	b.percentiles(m, "job", jobMS, false)
	b.percentiles(m, "warm_job", warmMS, true)
	b.notef("%d round(s) of %d runs, %d set-up samples", len(rounds), len(b.w.Runs), len(setups))
	b.notef("host speed: reference pass median %.4f ms over %d readings (scaled to %v); sim_minst_per_s as measured %.4g",
		benchkit.Median(refs), len(refs), benchkit.RefNominal, benchkit.Median(rawRates))
	return m, nil
}

// warmMillis is the warm samples in milliseconds at the reference speed.
func (o childOut) warmMillis() []float64 {
	ref := o.ref()
	out := make([]float64, len(o.WarmNS))
	for i, v := range o.WarmNS {
		out[i] = benchkit.AtRef(time.Duration(v), ref) * 1e3
	}
	return out
}

// spawn runs one child process over the given run indices and waits for
// it. Set-up time is measured from just before exec to the child's
// "ready" line: process start, workload registry and Suite built.
func (b *bench) spawn(ctx context.Context, self string, runs []int) (child, error) {
	idx, err := json.Marshal(runs)
	if err != nil {
		return child{}, err
	}
	cmd := exec.CommandContext(ctx, self, "child", "-workload", b.w.Name, "-runs", string(idx))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return child{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	setup := time.Since(t0)
	var out childOut
	if err == nil && line == "ready\n" {
		err = json.NewDecoder(br).Decode(&out)
	} else if err == nil {
		err = fmt.Errorf("child said %q before ready", line)
	}
	_, _ = io.Copy(io.Discard, stdout) // drain so Wait can finish
	werr := cmd.Wait()
	if err != nil {
		return child{}, fmt.Errorf("child %v: %w", runs, err)
	}
	if werr != nil {
		return child{}, fmt.Errorf("child %v: %w", runs, werr)
	}
	c := child{out: out, setup: setup}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// childMain is the in-process simulation: it builds the registry and a
// Suite, says "ready", simulates the listed runs, then times
// cache-served repeats of them.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	runsJSON := fs.String("runs", "[]", "JSON list of run indices")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := benchkit.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var idx []int
	if err := json.Unmarshal([]byte(*runsJSON), &idx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	known := map[string]bool{}
	for _, n := range lattecc.Workloads() {
		known[n] = true
	}
	suite := lattecc.NewSuite(w.Config())
	for _, i := range idx {
		if i < 0 || i >= len(w.Runs) || !known[w.Runs[i].Bench] {
			fmt.Fprintf(os.Stderr, "child: bad run index %d\n", i)
			return 2
		}
	}
	fmt.Println("ready")

	ref := benchkit.NewRefLoop()
	reading := func() int64 {
		runtime.GC()
		return ref.Read().Nanoseconds()
	}
	out := childOut{RefNS: []int64{reading()}}
	for _, i := range idx {
		r := w.Runs[i]
		t := time.Now()
		res, err := suite.Run(r.Bench, lattecc.Policy(r.Policy), lattecc.Variant{})
		ro := runOut{Run: r, WallNS: time.Since(t).Nanoseconds()}
		if err != nil {
			ro.Err = err.Error()
		} else {
			ro.Insts, ro.Cycles, ro.Hash = res.Instructions, res.Cycles, res.StateHash()
		}
		out.Runs = append(out.Runs, ro)
		out.RefNS = append(out.RefNS, reading())
	}
	for len(out.Runs) > 0 && len(out.WarmNS) < warmSamples {
		for _, ro := range out.Runs {
			t := time.Now()
			for k := 0; k < warmBatch; k++ {
				_, _ = suite.Run(ro.Run.Bench, lattecc.Policy(ro.Run.Policy), lattecc.Variant{})
			}
			out.WarmNS = append(out.WarmNS, time.Since(t).Nanoseconds()/warmBatch)
		}
	}
	out.RefNS = append(out.RefNS, reading())
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// compareMain prints the metric ratios of two results files.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2e compare a.json b.json")
		return 2
	}
	a, err := benchkit.ReadRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := benchkit.ReadRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(benchkit.Compare(a, b))
	return 0
}
