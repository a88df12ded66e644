package resultstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/stats"
)

// testResult hand-builds a result exercising every serialized field:
// kernels, EP logs, per-mode arrays, and both sampled series (including
// non-trivial float bit patterns).
func testResult(workload string) sim.Result {
	var res sim.Result
	res.Policy = "LATTE-CC"
	res.Workload = workload
	res.Cycles = 123_456
	res.Instructions = 987_654
	res.Cache.Accesses = 1000
	res.Cache.Hits = 700
	res.Cache.Misses = 300
	res.Cache.CompressedHits = 250
	res.Cache.DecompWait = 41
	res.Cache.DecompBusy = 42
	res.Cache.DecompBufferHits = 43
	res.Cache.Evictions = 44
	res.Cache.Fills = 45
	res.Cache.FlushedLines = 46
	res.Cache.WriteExpansions = 47
	res.Cache.UncompressedSize = 128 * 1024
	res.Cache.CompressedSize = 77 * 1024
	for m := 0; m < modes.NumModes; m++ {
		res.Cache.InsertsByMode[m] = uint64(100 + m)
		res.Cache.HitsByMode[m] = uint64(200 + m)
		res.Cache.SubBlocksByMode[m] = uint64(300 + m)
		res.ModeEPs[m] = uint64(400 + m)
	}
	res.Mem.L2Accesses = 11
	res.Mem.L2Hits = 12
	res.Mem.L2Misses = 13
	res.Mem.L2Writes = 14
	res.Mem.DRAMReads = 15
	res.Mem.DRAMWrites = 16
	res.Mem.BytesL1L2 = 17
	res.Mem.BytesL2DRAM = 18
	res.Kernels = []sim.KernelResult{
		{Name: "k0", Cycles: 5000, Start: 0},
		{Name: "k1", Cycles: 7000, Start: 5000},
	}
	res.LoadTxns = 800
	res.StoreTxns = 200
	res.MSHRStallCycles = 55
	res.Switches = 9
	res.EPLog = []modes.Mode{modes.None, modes.LowLat, modes.HighCap, modes.LowLat}
	res.EPKernels = []int32{0, 0, 1, 1}
	tol := stats.NewSeries("tolerance", 64)
	cap := stats.NewSeries("capacity", 64)
	for i := 0; i < 8; i++ {
		tol.Add(uint64(i*512), float64(i)*1.25+0.1)
		cap.Add(uint64(i*512), 16384.0/float64(i+1))
	}
	res.ToleranceSeries = tol
	res.CapacitySeries = cap
	return res
}

func testKey(workload string) harness.StoreKey {
	return harness.StoreKey{
		Fingerprint: 0xdeadbeefcafef00d,
		Workload:    workload,
		Policy:      harness.LatteCC,
		Variant:     harness.Variant{SampleSeries: true, ExtraHitLatency: 3},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	k := testKey("SS")
	res := testResult("SS")
	raw := Encode(k, res)
	dk, dec, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dk != k {
		t.Fatalf("key round-trip: got %+v, want %+v", dk, k)
	}
	if got, want := dec.StateHash(), res.StateHash(); got != want {
		t.Fatalf("StateHash round-trip: got 0x%016x, want 0x%016x", got, want)
	}
	// Series restore must be point-exact (bit-identical floats).
	for i, pair := range [][2]*stats.Series{
		{res.ToleranceSeries, dec.ToleranceSeries},
		{res.CapacitySeries, dec.CapacitySeries},
	} {
		if !reflect.DeepEqual(pair[0].Points(), pair[1].Points()) {
			t.Errorf("series %d points differ after round-trip", i)
		}
		if pair[0].Name != pair[1].Name {
			t.Errorf("series %d name: got %q want %q", i, pair[1].Name, pair[0].Name)
		}
	}
	// Everything outside the series pointers must be identical field for
	// field, not merely hash-equal.
	a, b := res, dec
	a.ToleranceSeries, a.CapacitySeries = nil, nil
	b.ToleranceSeries, b.CapacitySeries = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("result round-trip differs:\n got %+v\nwant %+v", b, a)
	}
}

func TestEncodeDecodeNilSeriesAndEmptySlices(t *testing.T) {
	k := testKey("BO")
	res := testResult("BO")
	res.ToleranceSeries, res.CapacitySeries = nil, nil
	res.Kernels, res.EPLog, res.EPKernels = nil, nil, nil
	raw := Encode(k, res)
	_, dec, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got, want := dec.StateHash(), res.StateHash(); got != want {
		t.Fatalf("StateHash: got 0x%016x, want 0x%016x", got, want)
	}
	if dec.ToleranceSeries != nil || dec.CapacitySeries != nil {
		t.Fatal("nil series must stay nil")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("SS")
	res := testResult("SS")

	if _, ok := st.Load(k); ok {
		t.Fatal("empty store must miss")
	}
	st.Save(k, res)
	got, ok := st.Load(k)
	if !ok {
		t.Fatal("saved entry must load")
	}
	if got.StateHash() != res.StateHash() {
		t.Fatalf("loaded StateHash 0x%016x != saved 0x%016x", got.StateHash(), res.StateHash())
	}
	c := st.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Saves != 1 || c.Corrupt != 0 || c.Entries != 1 {
		t.Fatalf("counters after miss+save+hit: %+v", c)
	}
	if c.Bytes <= 0 {
		t.Fatalf("byte accounting: %+v", c)
	}
}

func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	st1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"SS", "BO", "KM"}
	for _, w := range keys {
		st1.Save(testKey(w), testResult(w))
	}

	// A second store over the same directory (the restarted daemon) must
	// index every entry at open and serve them without re-saving.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := st2.Counters(); c.Entries != len(keys) || c.Saves != 0 {
		t.Fatalf("warm-start index: %+v", c)
	}
	for _, w := range keys {
		got, ok := st2.Load(testKey(w))
		if !ok {
			t.Fatalf("warm-start load %s missed", w)
		}
		if want := testResult(w).StateHash(); got.StateHash() != want {
			t.Fatalf("warm-start %s: StateHash 0x%016x want 0x%016x", w, got.StateHash(), want)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// All three entries have the same size (same-shape results, equal
	// name lengths), so a bound of 2.5 entries holds exactly two.
	size := int64(len(Encode(testKey("W1"), testResult("W1"))))
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxBytes: 2*size + size/2})
	if err != nil {
		t.Fatal(err)
	}
	st.Save(testKey("W1"), testResult("W1"))
	st.Save(testKey("W2"), testResult("W2"))
	if _, ok := st.Load(testKey("W1")); !ok { // bump W1: W2 is now LRU
		t.Fatal("W1 must load")
	}
	st.Save(testKey("W3"), testResult("W3"))

	c := st.Counters()
	if c.Evictions != 1 || c.Entries != 2 {
		t.Fatalf("after spill: %+v", c)
	}
	if _, ok := st.Load(testKey("W2")); ok {
		t.Fatal("W2 was LRU and must be evicted")
	}
	for _, w := range []string{"W1", "W3"} {
		if _, ok := st.Load(testKey(w)); !ok {
			t.Fatalf("%s must survive the spill", w)
		}
	}
	// The evicted file is actually gone from disk.
	if _, err := os.Stat(filepath.Join(dir, KeyHex(testKey("W2"))+suffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry still on disk (err=%v)", err)
	}
}

func TestNewestEntryRetainedOverBudget(t *testing.T) {
	st, err := Open(t.TempDir(), Options{MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	st.Save(testKey("SS"), testResult("SS"))
	if _, ok := st.Load(testKey("SS")); !ok {
		t.Fatal("sole entry must be retained even over budget")
	}
}

func TestOpenEvictsPreexistingOverBudget(t *testing.T) {
	dir := t.TempDir()
	st1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"W1", "W2", "W3", "W4"} {
		st1.Save(testKey(w), testResult(w))
	}
	size := int64(len(Encode(testKey("W1"), testResult("W1"))))
	st2, err := Open(dir, Options{MaxBytes: 2*size + size/2})
	if err != nil {
		t.Fatal(err)
	}
	if c := st2.Counters(); c.Entries != 2 || c.Bytes > 2*size+size/2 {
		t.Fatalf("open over budget must evict down to bound: %+v", c)
	}
}

func TestKeyMismatchFailsClosed(t *testing.T) {
	// A valid entry filed under another key's filename (the shape of a
	// 64-bit filename-hash collision, or tampering): the bytes decode
	// cleanly, but the key block disagrees with the request, so Load must
	// refuse it rather than serve another run's result.
	dir := t.TempDir()
	kA, kB := testKey("AA"), testKey("BB")
	raw := Encode(kA, testResult("AA"))
	if err := os.WriteFile(filepath.Join(dir, KeyHex(kB)+suffix), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(kB); ok {
		t.Fatal("entry with mismatched key must not serve")
	}
	if c := st.Counters(); c.Corrupt != 1 {
		t.Fatalf("key mismatch must count as corrupt: %+v", c)
	}
}

func TestConcurrentSaveLoad(t *testing.T) {
	st, err := Open(t.TempDir(), Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			names := []string{"SS", "BO", "KM", "HS"}
			for i := 0; i < 20; i++ {
				w := names[(g+i)%len(names)]
				st.Save(testKey(w), testResult(w))
				if got, ok := st.Load(testKey(w)); ok {
					if want := testResult(w).StateHash(); got.StateHash() != want {
						t.Errorf("concurrent load %s: wrong hash", w)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c := st.Counters(); c.Corrupt != 0 {
		t.Fatalf("concurrent use must not manufacture corruption: %+v", c)
	}
}
