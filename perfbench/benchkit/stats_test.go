package benchkit

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{1, 50, 1, 0},
		{2, 50, 1, 1},
		{10, 50, 5, 5},
		{10, 90, 9, 1},
		{100, 90, 90, 10},
		{140, 90, 126, 14},
		{140, 95, 133, 7},
		{12, 90, 11, 1},
	} {
		v, beyond := Percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("Percentile(1..%d, %g) = %g, %d beyond; want %g, %d", c.n, c.p, v, beyond, c.want, c.beyond)
		}
	}
	if v, _ := Percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("Percentile(empty) = %g, want NaN", v)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := TailPercentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 has exactly 10 beyond, want ok: %v", err)
	}
	if _, err := TailPercentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 has 9 beyond, want an error")
	}
	if _, err := TailPercentile(seq(140), 95); err == nil {
		t.Error("p95 of 140 has 7 beyond, want an error")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean(1,4,16) = %g, want 4", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if got := Geomean(bad); !math.IsNaN(got) {
			t.Errorf("Geomean(%v) = %g, want NaN", bad, got)
		}
	}
}

func TestSpeedupPairsByBenchmark(t *testing.T) {
	cycles := map[Run]uint64{
		{"A", "base"}: 200, {"A", "test"}: 100, // 2x
		{"B", "base"}: 100, {"B", "test"}: 200, // 0.5x
		{"C", "base"}: 300, {"C", "test"}: 100, // 3x
		{"D", "base"}: 999, // no test run: left out
	}
	if got, want := Speedup(cycles, "base", "test"), math.Cbrt(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("Speedup = %g, want %g", got, want)
	}
}

func TestShuffledIsSeedDetermined(t *testing.T) {
	w, err := Lookup("daemon-fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Runs) != 140 {
		t.Fatalf("daemon-fig11 has %d runs, want the 140 of Figure 11", len(w.Runs))
	}
	a, b, c := Shuffled(w.Runs, 7), Shuffled(w.Runs, 7), Shuffled(w.Runs, 8)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v, different seed differs: %v", same, differ)
	}
}

func TestColdOrderPutsKernelOPTLast(t *testing.T) {
	w, err := Lookup("daemon-fig11")
	if err != nil {
		t.Fatal(err)
	}
	order := ColdOrder(w.Runs, 3)
	if len(order) != len(w.Runs) {
		t.Fatalf("ColdOrder has %d runs, want %d", len(order), len(w.Runs))
	}
	seen := map[Run]bool{}
	opt := false
	for _, r := range order {
		seen[r] = true
		isOpt := r.Policy == "Kernel-OPT"
		if opt && !isOpt {
			t.Fatalf("%v submitted after a Kernel-OPT run", r)
		}
		opt = opt || isOpt
	}
	if len(seen) != len(w.Runs) {
		t.Errorf("ColdOrder lost or duplicated runs: %d distinct", len(seen))
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{100, 2, 4, 0}, 3},           // drops 0 and 100
		{[]float64{1, 1, 1, 9, 9, 9, 9, 1}, 5}, // two clusters: the middle half straddles them
	} {
		if got := MidMean(c.xs); got != c.want {
			t.Errorf("MidMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if v := MidMean(nil); !math.IsNaN(v) {
		t.Errorf("MidMean(empty) = %g, want NaN", v)
	}
}
