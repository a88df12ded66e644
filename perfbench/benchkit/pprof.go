package benchkit

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// Layers are the lattecc/internal packages the per-layer ledger names,
// in report order. Samples anywhere else roll up into "other" (the Go
// runtime and standard library, the facade, the benchmark itself).
var Layers = []string{"compress", "cache", "core", "sim", "mem", "workload", "harness", "resultstore", "server"}

// PprofTop runs the installed toolchain's `go tool pprof -top` over a
// CPU profile with no node or edge dropped.
func PprofTop(goBin, profile string) ([]byte, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return out, nil
}

// RollUp sums the flat share of every function in a `pprof -top`
// listing by the lattecc/internal package it belongs to; the result
// maps each of Layers (and "other") to a fraction of all samples.
func RollUp(top io.Reader) (map[string]float64, error) {
	shares := map[string]float64{"other": 0}
	for _, l := range Layers {
		shares[l] = 0
	}
	sc := bufio.NewScanner(top)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof: bad flat%% in %q", sc.Text())
		}
		shares[layerOf(strings.Join(f[5:], " "))] += pct / 100
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof: no -top table in output")
	}
	return shares, nil
}

// layerOf maps a symbol such as "lattecc/internal/sim.(*sm).schedule" to
// its layer ("sim"), or "other".
func layerOf(sym string) string {
	const prefix = "lattecc/internal/"
	if !strings.HasPrefix(sym, prefix) {
		return "other"
	}
	rest := sym[len(prefix):]
	// The package path ends at the first '.' or '/' after the prefix.
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range Layers {
		if l == rest {
			return l
		}
	}
	return "other"
}
