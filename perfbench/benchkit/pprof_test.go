package benchkit

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"lattecc"
)

const topFixture = `File: layers
Type: cpu
Duration: 2s, Total samples = 2s (100.00%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      1.20s 60.00%  lattecc/internal/sim.(*sm).schedule
     0.40s 20.00% 60.00%      0.40s 20.00%  lattecc/internal/compress.(*SC).Measure
     0.30s 15.00% 75.00%      0.30s 15.00%  lattecc/internal/sim.(*Sim).Run.func1
     0.20s 10.00% 85.00%      0.20s 10.00%  runtime.mallocgc
     0.10s  5.00% 90.00%      0.10s  5.00%  lattecc/internal/policy.(*Static).RecordAccess
     0.10s  5.00% 95.00%      0.10s  5.00%  lattecc/internal/resultstore.Encode
     0.10s  5.00%   100%      0.10s  5.00%  lattecc/perfbench/benchkit.(*Spans).Begin
`

func TestRollUpByLayer(t *testing.T) {
	got, err := RollUp(strings.NewReader(topFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.55, "compress": 0.20, "resultstore": 0.05, "other": 0.20}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s share = %g, want %g", layer, got[layer], w)
		}
	}
	for _, l := range Layers {
		if _, ok := got[l]; !ok {
			t.Errorf("layer %s missing from the roll-up", l)
		}
	}
	if _, err := RollUp(strings.NewReader("no table here\n")); err == nil {
		t.Error("RollUp without a -top table succeeded")
	}
}

// TestRollUpRealProfile profiles codec work through the facade and rolls
// it up with the installed toolchain's pprof: the samples must land in
// the compress layer.
func TestRollUpRealProfile(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	bdi := lattecc.NewBDI()
	line := make([]byte, lattecc.LineSize)
	for i := range line {
		line[i] = byte(i % 7)
	}
	sink := 0
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += bdi.Measure(line).Size
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	top, err := PprofTop(goBin, path)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := RollUp(bytes.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	// The rest is the runtime (and, under -race, its instrumentation),
	// which rolls up into "other"; no other layer ran.
	var rest float64
	for _, l := range Layers {
		if l != "compress" {
			rest += shares[l]
		}
	}
	if shares["compress"] <= 0 || rest > shares["compress"]/10 {
		t.Errorf("compress share = %.3f of a BDI.Measure loop (sink %d), other layers %.3f; shares %v", shares["compress"], sink, rest, shares)
	}
}
