package benchkit

import (
	"fmt"
	"math/rand"
	"sort"

	"lattecc"
)

// Run is one simulation: a benchmark under a policy.
type Run struct {
	Bench  string `json:"workload"`
	Policy string `json:"policy"`
}

// Workload is one named benchmark workload: a machine and the runs made
// on it. Simulated data is fixed by the program (every benchmark's data
// seed is baked into its definition); the benchmark seed only reorders
// submissions and samples the lines the micro-timings use.
type Workload struct {
	Name string
	// Daemon workloads go through a latteccd process over HTTP;
	// the others run in-process through the lattecc facade.
	Daemon bool
	// Tiny selects the CI golden machine (2 SMs, 120k-instruction cap),
	// exactly what `latteccd -tiny` and `experiments -tiny` run.
	Tiny bool
	Runs []Run
	// sim_speedup is the geometric mean over benchmarks of
	// cycles(Base) / cycles(Test).
	Base, Test string
}

// Config is the simulated machine of w.
func (w Workload) Config() lattecc.Config {
	cfg := lattecc.DefaultConfig()
	if w.Tiny {
		cfg.NumSMs = 2
		cfg.MaxInstructions = 120_000
	}
	return cfg
}

func cross(benches, policies []string) []Run {
	var out []Run
	for _, b := range benches {
		for _, p := range policies {
			out = append(out, Run{Bench: b, Policy: p})
		}
	}
	return out
}

// fig11Policies is the policy set of the paper's Figure 11 (speedup over
// the uncompressed baseline), as cmd/experiments -exp fig11 runs it.
var fig11Policies = []string{
	string(lattecc.Uncompressed), string(lattecc.StaticBDI), string(lattecc.StaticSC),
	string(lattecc.LatteCC), string(lattecc.KernelOpt),
}

// Workloads returns the benchmark's workloads in report order.
func Workloads() []Workload {
	return []Workload{
		{
			// Cache-sensitive, SC-friendly benchmarks on the Table II
			// machine: SC Huffman rebuilds, LATTE-CC EP decisions and
			// compressed-cache flushes dominate host time.
			Name: "sc-adaptive",
			Runs: cross([]string{"SS", "KM", "MKS", "AVF"},
				[]string{string(lattecc.Uncompressed), string(lattecc.StaticSC), string(lattecc.LatteCC)}),
			Base: string(lattecc.Uncompressed), Test: string(lattecc.LatteCC),
		},
		{
			// The 12 cache-insensitive benchmarks of Table III: no SC
			// table, no adaptive controller — scheduler/LSU, L2/DRAM,
			// workload generator and BDI sizing only.
			Name: "cinsens-bdi",
			Runs: cross([]string{"BO", "PTH", "HOT", "FWT", "BP", "NW", "SR1", "HW", "SCL", "BT", "WC", "BFS"},
				[]string{string(lattecc.Uncompressed), string(lattecc.StaticBDI)}),
			Base: string(lattecc.Uncompressed), Test: string(lattecc.StaticBDI),
		},
		{
			// Figure 11 on the tiny machine through latteccd: many short,
			// set-up-dominated jobs; cold passes simulate and save, warm
			// passes load from the result store.
			Name:   "daemon-fig11",
			Daemon: true,
			Tiny:   true,
			Runs:   cross(lattecc.Workloads(), fig11Policies),
			Base:   string(lattecc.Uncompressed), Test: string(lattecc.LatteCC),
		},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Shuffled returns a seed-determined permutation of runs.
func Shuffled(runs []Run, seed int64) []Run {
	out := append([]Run(nil), runs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ColdOrder is a seed-determined submission order for a cold pass: a
// shuffle in which every Kernel-OPT run comes after all other runs.
// Kernel-OPT simulates its three static prerequisites first unless they
// are cached, so without this the seed would decide which jobs pay for
// those simulations and move the cold latency distribution.
func ColdOrder(runs []Run, seed int64) []Run {
	var first, last []Run
	for _, r := range Shuffled(runs, seed) {
		if r.Policy == string(lattecc.KernelOpt) {
			last = append(last, r)
		} else {
			first = append(first, r)
		}
	}
	return append(first, last...)
}

// Speedup is sim_speedup: the geometric mean, over the benchmarks that
// ran under both policies, of cycles(base)/cycles(test). cycles maps a
// Run to its simulated cycle count.
func Speedup(cycles map[Run]uint64, base, test string) float64 {
	var benches []string
	seen := map[string]bool{}
	for r := range cycles {
		if !seen[r.Bench] {
			seen[r.Bench] = true
			benches = append(benches, r.Bench)
		}
	}
	sort.Strings(benches) // a fixed summation order keeps the value bit-stable
	var ratios []float64
	for _, b := range benches {
		cb, okB := cycles[Run{b, base}]
		ct, okT := cycles[Run{b, test}]
		if okB && okT && ct > 0 {
			ratios = append(ratios, float64(cb)/float64(ct))
		}
	}
	return Geomean(ratios)
}
