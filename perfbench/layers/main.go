// Command layers is the traced half of the lattecc benchmark: it runs a
// workload's simulations with timing spans around the calls the
// benchmark makes into each layer, and reports the per-layer ledger
// (see ledger.go). Unlike perfbench/e2e it imports lattecc/internal, so
// an internal refactor can break only this half.
//
// One invocation, all in this process:
//
//  1. suite: every run through a harness.Suite backed by a real result
//     store, under the CPU profiler (the reference StateHashes; harness
//     and resultstore spans come from a timing wrapper around the store);
//  2. store: reopen the store and load every result;
//  3. server: an in-process latteccd server over that store serves
//     every run as a job (all store hits);
//  4. plain and traced, with the profiler stopped: every run through
//     sim.New twice, first untouched (the baseline time and allocations)
//     and then with Program.Next, DataSource.LineInto and
//     Controller.RecordAccess timed per call; both StateHashes must
//     match step 1;
//  5. micro: codec, replay and memory timings over lines and a trace
//     sampled from the workload with the seed.
//
// The end-to-end metrics come only from perfbench/e2e's untraced runs.
//
// Usage (from the root of a lattecc checkout, normally via
// perfbench/run.sh): layers --workload sc-adaptive --seed 1 --trace 1
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"lattecc"
	"lattecc/internal/core"
	"lattecc/internal/energy"
	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/resultstore"
	"lattecc/internal/server"
	"lattecc/internal/sim"
	"lattecc/internal/workload"

	"lattecc/perfbench/benchkit"
)

// The harness's EP length and EPs per period (Section IV-C3), which the
// static and scheduled policies also use for code-book maintenance.
const (
	epLen        = 256
	epsPerPeriod = 10
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	var (
		name   = fs.String("workload", "", "workload name")
		seed   = fs.Int64("seed", 1, "seed: server submission order and the lines/trace sampled for micro-timings")
		_      = fs.Int("seconds", 0, "accepted for the common interface; the traced run does one fixed pass")
		trace  = fs.Int("trace", 1, "must be 1: the untraced run is perfbench/e2e")
		outDir = fs.String("out", ".bench_build/results", "directory for the results file and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "layers: --trace 0 is served by perfbench/e2e")
		return 2
	}
	w, err := benchkit.Lookup(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		return 2
	}
	runDir := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		return 1
	}
	t := &tracer{w: w, cfg: w.Config(), seed: *seed, spans: benchkit.NewSpans(), m: map[string]benchkit.Metric{}}
	if err := t.measure(runDir); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %s: %v\n", w.Name, err)
		return 1
	}
	for _, e := range t.checks.Errors {
		fmt.Fprintf(os.Stderr, "layers: check failed: %s\n", e)
	}
	if err := writeSpans(*outDir, w.Name, *seed, t.spans); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		return 1
	}
	for _, l := range ledger {
		fmt.Fprintf(os.Stderr, "ledger %-30s %14.6g %-10s should move: %s\n", l.Name, t.m[l.Name].Value, l.Unit, l.Moves)
	}
	rec := benchkit.Record{
		Workload: w.Name, Seed: *seed, Trace: true,
		Host:   benchkit.DescribeHost(root),
		Result: t.checks.Result(t.m),
		Notes:  t.notes,
	}
	if err := benchkit.Emit(os.Stdout, os.Stderr, *outDir, rec); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		return 1
	}
	return 0
}

// tracer carries one traced run's state.
type tracer struct {
	w      benchkit.Workload
	cfg    sim.Config
	seed   int64
	spans  *benchkit.Spans
	checks benchkit.Checks
	notes  []string
	m      map[string]benchkit.Metric

	results map[benchkit.Run]sim.Result // the Suite's, the reference for every later step
}

func (t *tracer) set(name string, v float64) {
	for _, l := range ledger {
		if l.Name == name {
			t.m[name] = benchkit.Metric{Value: v, Unit: l.Unit}
			return
		}
	}
	panic("layers: metric not in the ledger: " + name)
}

func (t *tracer) key(r benchkit.Run) harness.StoreKey {
	return harness.StoreKey{Fingerprint: t.cfg.Fingerprint(), Workload: r.Bench, Policy: harness.Policy(r.Policy)}
}

func (t *tracer) measure(runDir string) error {
	storeDir, err := os.MkdirTemp(runDir, "layers-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	prof, err := os.CreateTemp(runDir, "cpu-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(prof.Name())
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	err = t.suite(storeDir)
	if err == nil {
		err = t.storeAndServer(storeDir)
	}
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := t.cpuShares(prof.Name()); err != nil {
		return err
	}
	if err := t.traced(); err != nil {
		return err
	}
	return t.micro()
}

// suite runs every run through a store-backed Suite, keeping the results
// as the reference for every later step.
func (t *tracer) suite(storeDir string) error {
	st, err := resultstore.Open(storeDir, resultstore.Options{})
	if err != nil {
		return err
	}
	ts := &timedStore{inner: st, spans: t.spans, open: map[harness.StoreKey]int{}}
	suite := harness.NewSuite(t.cfg)
	suite.Store = ts
	t.results = map[benchkit.Run]sim.Result{}

	var runSpans []int
	for i, r := range t.w.Runs {
		ts.run = i
		ts.root = t.spans.Begin("harness.run", i, -1)
		res, err := suite.Run(r.Bench, harness.Policy(r.Policy), harness.Variant{})
		t.spans.End(ts.root)
		runSpans = append(runSpans, ts.root)
		t.checks.Check(err == nil, "suite %s/%s: %v", r.Bench, r.Policy, err)
		t.results[r] = res
	}

	// Harness overhead: what a Suite.Run call spends outside the store
	// and the simulation (its self time), per call.
	var self time.Duration
	for _, i := range runSpans {
		self += t.spans.SelfTime(i)
	}
	t.set("harness.run_overhead_ms", self.Seconds()*1e3/float64(len(runSpans)))
	t.set("harness.fresh_sims", float64(suite.Simulations()))
	t.set("harness.cache_hits", float64(suite.CacheHits()))
	saveBusy, saves := t.spans.Total("resultstore.save")
	if saves > 0 {
		t.set("resultstore.save_us", saveBusy.Seconds()*1e6/float64(saves))
	}

	// Model outputs of the Suite's results.
	var acc, hits, fills, flushed, decompWait, insts, cycles, mshr, l2a, l2h, dram uint64
	var eps, switches uint64
	var energyRatios []float64
	for _, r := range t.w.Runs { // slice order keeps the float sums bit-stable
		res := t.results[r]
		acc += res.Cache.Accesses
		hits += res.Cache.Hits
		fills += res.Cache.Fills
		flushed += res.Cache.FlushedLines
		decompWait += res.Cache.DecompWait
		insts += res.Instructions
		cycles += res.Cycles
		mshr += res.MSHRStallCycles
		l2a += res.Mem.L2Accesses
		l2h += res.Mem.L2Hits
		dram += res.Mem.DRAMReads
		for _, n := range res.ModeEPs {
			eps += n
		}
		switches += res.Switches
		if r.Policy == t.w.Test {
			base := t.results[benchkit.Run{Bench: r.Bench, Policy: t.w.Base}]
			p := energy.DefaultParams()
			energyRatios = append(energyRatios, energy.Evaluate(res, p).Total()/energy.Evaluate(base, p).Total())
		}
	}
	t.set("cache.hit_rate", ratio(hits, acc))
	t.set("cache.flushed_per_fill", ratio(flushed, fills))
	t.set("cache.decomp_wait_per_access", ratio(decompWait, acc))
	t.set("sim.ipc", ratio(insts, cycles))
	t.set("sim.mshr_stall_per_kinst", ratio(mshr*1000, insts))
	t.set("mem.l2_hit_rate", ratio(l2h, l2a))
	t.set("mem.dram_reads_per_kinst", ratio(dram*1000, insts))
	t.set("core.eps", float64(eps))
	t.set("core.switches_per_ep", ratio(switches, eps))
	t.set("energy.norm", benchkit.Geomean(energyRatios))
	return nil
}

// storeAndServer times the store's open and loads, then serves every run
// through an in-process server over the same store.
func (t *tracer) storeAndServer(storeDir string) error {
	t0 := time.Now()
	st, err := resultstore.Open(storeDir, resultstore.Options{})
	if err != nil {
		return err
	}
	t.set("resultstore.open_ms", time.Since(t0).Seconds()*1e3)
	var loads []float64
	for _, r := range t.w.Runs {
		i := t.spans.Begin("resultstore.load", -1, -1)
		res, ok := st.Load(t.key(r))
		t.spans.End(i)
		loads = append(loads, t.spans.All[i].Busy.Seconds()*1e6)
		t.checks.Check(ok && res.StateHash() == t.results[r].StateHash(), "store load %s/%s: ok=%v", r.Bench, r.Policy, ok)
	}
	t.set("resultstore.load_us", benchkit.Median(loads))

	srv := server.New(server.Config{BaseConfig: t.cfg, Workers: 2, Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	api := benchkit.NewClient(hs.URL, 1)
	jobs, _ := api.Pass(ctx, benchkit.Shuffled(t.w.Runs, t.seed), 1)
	var overhead, submit []float64
	for _, jr := range jobs {
		want := fmt.Sprintf("0x%016x", t.results[jr.Run].StateHash())
		t.checks.Check(jr.Err == nil && jr.Hash == want, "server %s/%s: hash %s want %s, err %v", jr.Run.Bench, jr.Run.Policy, jr.Hash, want, jr.Err)
		if jr.Err == nil {
			overhead = append(overhead, jr.Latency.Seconds()*1e3-jr.DurationMS)
			submit = append(submit, jr.Submit.Seconds()*1e3)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	t.set("server.overhead_ms", benchkit.Median(overhead))
	t.set("server.submit_ms", benchkit.Median(submit))
	return nil
}

// cpuShares rolls the profile up by layer with the installed toolchain.
func (t *tracer) cpuShares(profile string) error {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("cpu profile roll-up needs the go toolchain: %w", err)
	}
	top, err := benchkit.PprofTop(goBin, profile)
	if err != nil {
		return err
	}
	shares, err := benchkit.RollUp(bytes.NewReader(top))
	if err != nil {
		return err
	}
	for _, l := range benchkit.Layers {
		t.set(l+".cpu_share", shares[l])
	}
	t.notes = append(t.notes, fmt.Sprintf("cpu profile: %.3f of samples outside the named layers (runtime, stdlib, policy, stats, ...)", shares["other"]))
	return nil
}

// traced runs every simulation twice through sim.New, unprofiled: plain
// (the baseline time, and the allocations of sim.New(...).Run alone),
// then with per-call timing. Both StateHashes are checked against the
// Suite's. Interleaving the two per run keeps host-speed drift out of
// the tracing overhead.
func (t *tracer) traced() error {
	var plain, total time.Duration
	var allocated uint64
	var p probes
	var simSpans []int
	for i, r := range t.w.Runs {
		factory, err := t.factory(r)
		if err != nil {
			return err
		}
		want := t.results[r].StateHash()

		wl, err := workload.ByName(r.Bench)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		span := t.spans.Begin("sim.plain", i, -1)
		runtime.ReadMemStats(&m0)
		res := sim.New(t.cfg, wl, factory).Run()
		runtime.ReadMemStats(&m1)
		t.spans.End(span)
		plain += t.spans.All[span].Busy
		allocated += m1.TotalAlloc - m0.TotalAlloc
		res.Policy = r.Policy
		t.checks.Check(res.StateHash() == want, "plain %s/%s: StateHash %#x, suite %#x", r.Bench, r.Policy, res.StateHash(), want)

		if wl, err = workload.ByName(r.Bench); err != nil {
			return err
		}
		before := p
		span = t.spans.Begin("sim", i, -1)
		res = sim.New(t.cfg, tracedWorkload{wl, &p}, func(n int) modes.Controller {
			return tracedCtrl{factory(n), &p.recordAccess}
		}).Run()
		t.spans.End(span)
		simSpans = append(simSpans, span)
		total += t.spans.All[span].Busy
		sp := t.spans.All[span]
		for _, c := range []struct {
			name       string
			now, start hot
		}{
			{"workload.next", p.next, before.next},
			{"workload.line_into", p.lineInto, before.lineInto},
			{"core.record_access", p.recordAccess, before.recordAccess},
		} {
			t.spans.Add(benchkit.Span{Name: c.name, Run: i, Parent: span, Start: sp.Start, End: sp.End,
				Calls: c.now.calls - c.start.calls, Busy: c.now.busy - c.start.busy})
		}
		res.Policy = r.Policy
		t.checks.Check(res.StateHash() == want, "traced %s/%s: StateHash %#x, suite %#x", r.Bench, r.Policy, res.StateHash(), want)
	}
	var self time.Duration
	for _, i := range simSpans {
		self += t.spans.SelfTime(i)
	}
	t.set("sim.self_share", self.Seconds()/total.Seconds())
	t.set("workload.next_ns_per_inst", perCall(p.next))
	t.set("workload.line_into_ns", perCall(p.lineInto))
	t.set("core.record_access_ns", perCall(p.recordAccess))
	t.set("sim.alloc_mb", float64(allocated)/(1<<20))
	t.set("perfbench.trace_overhead", total.Seconds()/plain.Seconds()-1)
	return nil
}

// factory builds run r's controller factory the way harness.factoryFor
// does for the policies the workloads use; Kernel-OPT's per-kernel
// schedule comes from the Suite's static runs. A mismatch shows up as a
// StateHash failure.
func (t *tracer) factory(r benchkit.Run) (sim.ControllerFactory, error) {
	static := func(m modes.Mode) sim.ControllerFactory {
		return func(int) modes.Controller { return policy.NewStatic(m, r.Policy, epLen, epsPerPeriod) }
	}
	switch harness.Policy(r.Policy) {
	case harness.Uncompressed:
		return static(modes.None), nil
	case harness.StaticBDI:
		return static(modes.LowLat), nil
	case harness.StaticSC:
		return static(modes.HighCap), nil
	case harness.LatteCC:
		return func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }, nil
	case harness.KernelOpt:
		statics := []struct {
			p string
			m modes.Mode
		}{{string(lattecc.Uncompressed), modes.None}, {string(lattecc.StaticBDI), modes.LowLat}, {string(lattecc.StaticSC), modes.HighCap}}
		var schedule []modes.Mode
		for ki := range t.results[benchkit.Run{Bench: r.Bench, Policy: statics[0].p}].Kernels {
			best, bestCycles := modes.None, uint64(math.MaxUint64)
			for _, st := range statics {
				ks := t.results[benchkit.Run{Bench: r.Bench, Policy: st.p}].Kernels
				if ki < len(ks) && ks[ki].Cycles < bestCycles {
					best, bestCycles = st.m, ks[ki].Cycles
				}
			}
			schedule = append(schedule, best)
		}
		return func(int) modes.Controller { return policy.NewScheduled(r.Policy, schedule, epLen, epsPerPeriod) }, nil
	}
	return nil, fmt.Errorf("no traced factory for policy %q", r.Policy)
}

func perCall(h hot) float64 {
	if h.calls == 0 {
		return 0
	}
	return float64(h.busy.Nanoseconds()) / float64(h.calls)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func writeSpans(dir, name string, seed int64, spans *benchkit.Spans) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", name, seed)))
	if err != nil {
		return err
	}
	if err := spans.WriteJSONLines(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
