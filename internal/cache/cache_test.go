package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"lattecc/internal/compress"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
)

func testConfig() Config {
	var codecs [modes.NumModes]compress.Codec
	codecs[modes.LowLat] = compress.NewBDI()
	codecs[modes.HighCap] = compress.NewSC()
	return Config{
		SizeBytes:  16 * 1024,
		LineSize:   128,
		Ways:       4,
		HitLatency: 1,
		Codecs:     codecs,
	}
}

func uncompressedCache() *Cache {
	return New(testConfig(), policy.NewStatic(modes.None, "base", 256, 10))
}

func bdiCache() *Cache {
	return New(testConfig(), policy.NewStatic(modes.LowLat, "bdi", 256, 10))
}

// compressibleLine returns stride data that BDI compresses to b4d1
// (4B base + 32 deltas + 4B mask ≈ 40B → 2 sub-blocks).
func compressibleLine() []byte {
	b := make([]byte, 128)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], 0x40000000+uint32(i))
	}
	return b
}

func randomLine(rng *rand.Rand) []byte {
	b := make([]byte, 128)
	rng.Read(b)
	return b
}

func TestMissThenFillThenHit(t *testing.T) {
	c := uncompressedCache()
	addr := uint64(0x4000)
	if r := c.Access(addr, 0); r.Hit {
		t.Fatal("cold access must miss")
	}
	c.Fill(addr, make([]byte, 128), 10)
	r := c.Access(addr, 20)
	if !r.Hit {
		t.Fatal("post-fill access must hit")
	}
	if r.Ready != 20+c.cfg.HitLatency {
		t.Fatalf("ready = %d, want %d", r.Ready, 20+c.cfg.HitLatency)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fills != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBaselineCapacityIsFourWays(t *testing.T) {
	c := uncompressedCache()
	sets := c.NumSets()
	// Fill 5 lines mapping to set 0; only 4 fit uncompressed.
	for i := 0; i < 5; i++ {
		addr := uint64(i*sets) * 128
		c.Access(addr, 0)
		c.Fill(addr, make([]byte, 128), 0)
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("want exactly 1 eviction, got %d", c.Stats().Evictions)
	}
	// The LRU line (i=0) must be gone, the rest present.
	if r := c.Access(0, 100); r.Hit {
		t.Fatal("LRU line should have been evicted")
	}
	for i := 1; i < 5; i++ {
		if r := c.Access(uint64(i*sets)*128, 100); !r.Hit {
			t.Fatalf("line %d should be resident", i)
		}
	}
}

func TestCompressionExpandsCapacity(t *testing.T) {
	c := bdiCache()
	sets := c.NumSets()
	// Compressible lines take 2 sub-blocks each; a set has 16 sub-blocks
	// and 16 tags, so 8 lines fit.
	for i := 0; i < 8; i++ {
		addr := uint64(i*sets) * 128
		c.Access(addr, 0)
		c.Fill(addr, compressibleLine(), 0)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("8 compressed lines should fit without eviction, got %d evictions", ev)
	}
	for i := 0; i < 8; i++ {
		if r := c.Access(uint64(i*sets)*128, 100); !r.Hit {
			t.Fatalf("compressed line %d should be resident", i)
		}
	}
	if ratio := c.EffectiveCapacityRatio(); ratio <= 0 {
		t.Fatalf("effective capacity ratio %v", ratio)
	}
}

func TestTagLimitSixteenLinesPerSet(t *testing.T) {
	// Even infinitely compressible lines are capped by the 4x tag array.
	c := bdiCache()
	sets := c.NumSets()
	for i := 0; i < 20; i++ {
		addr := uint64(i*sets) * 128
		c.Access(addr, 0)
		c.Fill(addr, make([]byte, 128), 0) // zero lines → 1 sub-block
	}
	hits := 0
	for i := 0; i < 20; i++ {
		if r := c.Access(uint64(i*sets)*128, 1000); r.Hit {
			hits++
		}
	}
	if hits != 16 {
		t.Fatalf("tag-limited set should hold exactly 16 lines, got %d", hits)
	}
}

func TestDecompressionLatencyCharged(t *testing.T) {
	c := bdiCache()
	addr := uint64(0)
	c.Access(addr, 0)
	c.Fill(addr, compressibleLine(), 0)
	r := c.Access(addr, 50)
	if !r.Hit || r.LineMode != modes.LowLat {
		t.Fatalf("want compressed hit, got %+v", r)
	}
	wantExtra := uint64(compress.NewBDI().DecompLatency())
	if r.ExtraLatency != wantExtra {
		t.Fatalf("extra latency = %d, want %d", r.ExtraLatency, wantExtra)
	}
	if r.Ready != 50+c.cfg.HitLatency+wantExtra {
		t.Fatalf("ready = %d", r.Ready)
	}
}

func TestDecompressorQueueContention(t *testing.T) {
	c := bdiCache()
	addr := uint64(0)
	c.Access(addr, 0)
	c.Fill(addr, compressibleLine(), 0)
	r1 := c.Access(addr, 100)
	r2 := c.Access(addr, 100) // same cycle: must queue behind r1
	if r2.ExtraLatency <= r1.ExtraLatency {
		t.Fatalf("second decompression must wait: %d vs %d", r2.ExtraLatency, r1.ExtraLatency)
	}
	if c.Stats().DecompWait == 0 {
		t.Fatal("queue wait must be recorded")
	}
}

func TestUnboundedDecompressorAblation(t *testing.T) {
	cfg := testConfig()
	cfg.UnboundedDecompressor = true
	c := New(cfg, policy.NewStatic(modes.LowLat, "bdi", 256, 10))
	addr := uint64(0)
	c.Access(addr, 0)
	c.Fill(addr, compressibleLine(), 0)
	r1 := c.Access(addr, 100)
	r2 := c.Access(addr, 100)
	if r1.ExtraLatency != r2.ExtraLatency {
		t.Fatal("unbounded decompressor must not queue")
	}
	if c.Stats().DecompWait != 0 {
		t.Fatal("no wait should accrue")
	}
}

func TestCapacityOnlyNoLatency(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityOnly = true
	c := New(cfg, policy.NewStatic(modes.LowLat, "bdi", 256, 10))
	addr := uint64(0)
	c.Access(addr, 0)
	c.Fill(addr, compressibleLine(), 0)
	r := c.Access(addr, 10)
	if r.ExtraLatency != 0 {
		t.Fatalf("capacity-only mode must charge no decompression latency, got %d", r.ExtraLatency)
	}
}

func TestLatencyOnlyNoCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.LatencyOnly = true
	c := New(cfg, policy.NewStatic(modes.LowLat, "bdi", 256, 10))
	sets := c.NumSets()
	for i := 0; i < 5; i++ {
		addr := uint64(i*sets) * 128
		c.Access(addr, 0)
		c.Fill(addr, compressibleLine(), 0)
	}
	// Full-size storage: the 5th line must evict, like the baseline.
	if c.Stats().Evictions != 1 {
		t.Fatalf("latency-only must not expand capacity: %d evictions", c.Stats().Evictions)
	}
	r := c.Access(uint64(4*sets)*128, 100)
	if r.ExtraLatency == 0 {
		t.Fatal("latency-only must still charge decompression latency")
	}
}

func TestExtraHitLatencySweepKnob(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraHitLatency = 9
	c := New(cfg, policy.NewStatic(modes.None, "base", 256, 10))
	c.Access(0, 0)
	c.Fill(0, make([]byte, 128), 0)
	r := c.Access(0, 10)
	if r.Ready != 10+cfg.HitLatency+9 {
		t.Fatalf("ready = %d, want %d", r.Ready, 10+cfg.HitLatency+9)
	}
}

func TestFlushInvalidatesEverything(t *testing.T) {
	c := bdiCache()
	for i := 0; i < 10; i++ {
		addr := uint64(i) * 128
		c.Access(addr, 0)
		c.Fill(addr, compressibleLine(), 0)
	}
	if c.ValidLines() != 10 {
		t.Fatalf("valid = %d", c.ValidLines())
	}
	c.Flush()
	if c.ValidLines() != 0 {
		t.Fatalf("flush left %d lines", c.ValidLines())
	}
	if r := c.Access(0, 100); r.Hit {
		t.Fatal("flushed line must miss")
	}
}

func TestStaticSCRebuildFlushesCompressedLines(t *testing.T) {
	cfg := testConfig()
	epLen, eps := uint64(16), uint64(4)
	ctrl := policy.NewStatic(modes.HighCap, "Static-SC", epLen, eps)
	c := New(cfg, ctrl)
	// Before the first rebuild SC has no code book, so period-1 lines are
	// stored raw (and demoted to uncompressed — they stay valid across the
	// first rebuild). During period 2 the trained code book compresses
	// insertions; the second period-end flush must invalidate those.
	rng := rand.New(rand.NewSource(1))
	var accesses uint64
	scLine := func() []byte {
		// Lines drawn from a tiny word dictionary: highly SC-compressible.
		b := make([]byte, 128)
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], uint32(rng.Intn(8))*0x01010101)
		}
		return b
	}
	for accesses < 2*epLen*eps-1 {
		addr := uint64(rng.Intn(64)) * 128
		r := c.Access(addr, accesses)
		accesses++
		if !r.Hit {
			c.Fill(addr, scLine(), accesses)
		}
	}
	if c.ValidLines() == 0 {
		t.Fatal("cache should have contents before period end")
	}
	// The access that completes period 2 triggers flush+rebuild; lines
	// compressed under the old code book must be gone.
	c.Access(uint64(9999)*128, accesses)
	if c.Stats().FlushedLines == 0 {
		t.Fatal("second period-end flush must invalidate compressed lines")
	}
}

func TestSubBlockAccountingInvariant(t *testing.T) {
	// Property: after arbitrary access/fill sequences, every set's free
	// sub-block count equals capacity minus the sum of resident lines.
	f := func(seed int64, ops uint16) bool {
		c := bdiCache()
		rng := rand.New(rand.NewSource(seed))
		n := int(ops)%500 + 50
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(2048)) * 128
			r := c.Access(addr, uint64(i))
			if !r.Hit {
				var data []byte
				if rng.Intn(2) == 0 {
					data = compressibleLine()
				} else {
					data = randomLine(rng)
				}
				c.Fill(addr, data, uint64(i))
			}
		}
		valid := 0
		for si := range c.sets {
			s := &c.sets[si]
			used := 0
			for _, l := range s.lines {
				if l.valid {
					used += l.subBlocks
					valid++
					if l.subBlocks < 1 || l.subBlocks > 4 {
						return false
					}
				}
			}
			if s.freeSub != s.totalSub-used || s.freeSub < 0 {
				return false
			}
		}
		return valid == c.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateAndRatioStats(t *testing.T) {
	c := bdiCache()
	c.Access(0, 0)
	c.Fill(0, compressibleLine(), 0)
	c.Access(0, 10)
	st := c.Stats()
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	if st.AvgCompressionRatio() < 2 {
		t.Fatalf("ratio = %v, want >= 2 for stride data", st.AvgCompressionRatio())
	}
}

func TestEmptyStatsDefaults(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 || st.AvgCompressionRatio() != 1 {
		t.Fatal("empty stats defaults wrong")
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{SizeBytes: 16384, LineSize: 100, Ways: 4}, // not sub-block aligned
	} {
		func() {
			defer func() { recover() }()
			New(cfg, policy.NewStatic(modes.None, "x", 1, 1))
			t.Errorf("config %+v should panic", cfg)
		}()
	}
}

func TestSetIndexDistribution(t *testing.T) {
	c := uncompressedCache()
	counts := make(map[int]int)
	for i := 0; i < c.NumSets()*4; i++ {
		counts[c.setIndex(uint64(i))]++
	}
	for s, n := range counts {
		if n != 4 {
			t.Fatalf("set %d got %d lines, want uniform 4", s, n)
		}
	}
}

func TestWriteTouchExpandsCompressedLine(t *testing.T) {
	c := bdiCache()
	sets := c.NumSets()
	// Fill a set with 8 compressed lines (2 sub-blocks each).
	for i := 0; i < 8; i++ {
		addr := uint64(i*sets) * 128
		c.Access(addr, 0)
		c.Fill(addr, compressibleLine(), 0)
	}
	if c.ValidLines() != 8 {
		t.Fatalf("valid = %d", c.ValidLines())
	}
	// Write-touch one line: it expands to 4 sub-blocks; the set had 0
	// free, so an LRU neighbour must be evicted.
	c.WriteTouch(0, 10)
	st := c.Stats()
	if st.WriteExpansions != 1 {
		t.Fatalf("write expansions = %d", st.WriteExpansions)
	}
	if st.Evictions == 0 {
		t.Fatal("expansion with a full set must evict")
	}
	// The written line itself must survive, now uncompressed.
	r := c.Access(0, 20)
	if !r.Hit {
		t.Fatal("written line must stay resident")
	}
	if r.ExtraLatency != 0 {
		t.Fatal("expanded line must be uncompressed (no decompression)")
	}
}

func TestWriteTouchMissAndUncompressedAreNoOps(t *testing.T) {
	c := bdiCache()
	c.WriteTouch(0x7777000, 0) // miss: nothing happens
	if c.Stats().WriteExpansions != 0 || c.Stats().Evictions != 0 {
		t.Fatal("write-touch miss must be a no-op")
	}
	ctrl := policy.NewStatic(modes.None, "base", 256, 10)
	cu := New(testConfig(), ctrl)
	cu.Access(0, 0)
	cu.Fill(0, make([]byte, 128), 0)
	cu.WriteTouch(0, 1)
	if cu.Stats().WriteExpansions != 0 {
		t.Fatal("uncompressed lines need no expansion")
	}
}

func TestDecompressedLineBuffer(t *testing.T) {
	cfg := testConfig()
	cfg.DecompBufferEntries = 2
	c := New(cfg, policy.NewStatic(modes.LowLat, "bdi", 256, 10))
	addr := uint64(0)
	c.Access(addr, 0)
	c.Fill(addr, compressibleLine(), 0)

	// First hit decompresses; second hit is buffered and free.
	r1 := c.Access(addr, 100)
	if r1.ExtraLatency == 0 {
		t.Fatal("first hit must decompress")
	}
	r2 := c.Access(addr, 200)
	if r2.ExtraLatency != 0 {
		t.Fatalf("buffered hit must be free, got %d", r2.ExtraLatency)
	}
	if c.Stats().DecompBufferHits != 1 {
		t.Fatalf("buffer hits = %d", c.Stats().DecompBufferHits)
	}

	// FIFO capacity 2: touching two more lines evicts addr's entry.
	for i := 1; i <= 2; i++ {
		a := uint64(i) * 128 * uint64(c.NumSets()) // same set chain, distinct lines
		c.Access(a, 300)
		c.Fill(a, compressibleLine(), 300)
		c.Access(a, 310)
	}
	r3 := c.Access(addr, 400)
	if r3.ExtraLatency == 0 {
		t.Fatal("evicted buffer entry must re-decompress")
	}

	// A re-fill of the line invalidates its buffered copy.
	c.Access(addr, 500)                   // buffer it again
	c.Fill(addr, compressibleLine(), 510) // new data
	if r := c.Access(addr, 520); r.ExtraLatency == 0 {
		t.Fatal("refilled line must not serve stale buffered data")
	}

	// Flush clears the buffer.
	c.Access(addr, 600)
	c.Flush()
	if len(c.decompBuf) != 0 {
		t.Fatal("flush must clear the decompression buffer")
	}
}

func TestDecompressedLineBufferDisabledByDefault(t *testing.T) {
	c := bdiCache()
	c.Access(0, 0)
	c.Fill(0, compressibleLine(), 0)
	c.Access(0, 10)
	c.Access(0, 50)
	if c.Stats().DecompBufferHits != 0 {
		t.Fatal("buffer must be off by default (the paper's design)")
	}
}

// plainController is a Controller without the optional HighCapUser
// method: the cache must assume it may insert HighCap lines.
type plainController struct{ modes.Controller }

func TestHighCapTrainingFollowsController(t *testing.T) {
	cases := []struct {
		name  string
		ctrl  modes.Controller
		train bool
	}{
		{"Uncompressed", policy.NewStatic(modes.None, "base", 256, 10), false},
		{"Static-BDI", policy.NewStatic(modes.LowLat, "bdi", 256, 10), false},
		{"Static-SC", policy.NewStatic(modes.HighCap, "sc", 256, 10), true},
		{"no HighCapUser", plainController{policy.NewStatic(modes.None, "base", 256, 10)}, true},
	}
	for _, tc := range cases {
		cfg := testConfig()
		sc := cfg.Codecs[modes.HighCap].(*compress.SC)
		c := New(cfg, tc.ctrl)
		if c.TrainsHighCap() != tc.train {
			t.Fatalf("%s: TrainsHighCap = %v, want %v", tc.name, c.TrainsHighCap(), tc.train)
		}
		c.Fill(0, compressibleLine(), 1)
		c.TrainHighCap(compressibleLine())
		// Rebuild reports a new code book only if something was trained.
		if got := sc.Rebuild(); got != tc.train {
			t.Fatalf("%s: code book rebuilt = %v after a fill and a hit sample, want %v", tc.name, got, tc.train)
		}
	}
}
