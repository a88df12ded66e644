package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"time"

	"lattecc"
	"lattecc/internal/cache"
	"lattecc/internal/compress"
	"lattecc/internal/mem"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"

	"lattecc/perfbench/benchkit"
)

const (
	// traceInsts caps the simulation whose L1 accesses are recorded for
	// the replay and memory timings.
	traceInsts = 300_000
	// sampleLines is how many lines the codec timings use.
	sampleLines = 2048
	// repeats is how many times each micro-timing repeats; the median is
	// reported.
	repeats = 5
)

// micro times single layers in isolation on inputs drawn from the
// workload: a recorded L1 trace of one seed-chosen benchmark under the
// workload's test policy, its miss stream, and lines sampled from it.
func (t *tracer) micro() error {
	rng := rand.New(rand.NewSource(t.seed))
	bench := t.w.Runs[rng.Intn(len(t.w.Runs))].Bench
	r := benchkit.Run{Bench: bench, Policy: t.w.Test}
	wl, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	factory, err := t.factory(r)
	if err != nil {
		return err
	}

	// Record the trace through the facade, as a user would.
	var buf bytes.Buffer
	tw, err := lattecc.NewTraceWriter(&buf, bench)
	if err != nil {
		return err
	}
	cfg := t.cfg
	if cfg.MaxInstructions > traceInsts {
		cfg.MaxInstructions = traceInsts
	}
	cfg.Trace = tw
	sim.New(cfg, wl, factory).Run()
	if err := tw.Flush(); err != nil {
		return err
	}
	t.checks.Check(tw.Count() > 0, "trace of %s recorded no accesses", bench)
	t.notes = append(t.notes, "micro-timings use the L1 trace of "+bench+"/"+t.w.Test)

	// cache: tracefile.Replay, ns per replayed access.
	data := wl.Data()
	var replayNS []float64
	for i := 0; i < repeats; i++ {
		rd, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		t0 := time.Now()
		rr, err := tracefile.Replay(rd, t.cfg.Cache, factory, data, r.Policy)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		t.checks.Check(rr.Records > 0, "replay of %s: no records", bench)
		if rr.Records > 0 {
			replayNS = append(replayNS, float64(d.Nanoseconds())/float64(rr.Records))
		}
	}
	t.set("cache.replay_ns_per_access", benchkit.Median(replayNS))

	misses, reads, err := missStream(buf.Bytes(), t.cfg.Cache, factory, data)
	if err != nil {
		return err
	}

	// mem: System.Read over the miss stream, ns per read.
	var readNS []float64
	for i := 0; i < repeats && len(misses) > 0; i++ {
		m := mem.New(t.cfg.Mem)
		t0 := time.Now()
		for _, a := range misses {
			m.Read(a.addr, a.cycle)
		}
		readNS = append(readNS, float64(time.Since(t0).Nanoseconds())/float64(len(misses)))
	}
	t.set("mem.read_ns", benchkit.Median(readNS))

	// compress: lines sampled (with the seed) from the trace's reads.
	lines := make([][]byte, 0, sampleLines)
	for len(reads) > 0 && len(lines) < sampleLines {
		lines = append(lines, data.Line(reads[rng.Intn(len(reads))]/uint64(compress.LineSize)))
	}
	if len(lines) == 0 {
		return errors.New("no lines to time the codecs on")
	}
	t.codecs(lines)
	return nil
}

// codecs times Measure per codec and SC's code-book rebuild.
func (t *tracer) codecs(lines [][]byte) {
	sc := compress.NewSC()
	var rebuildUS, rebuildKB []float64
	for i := 0; i < repeats; i++ {
		for _, l := range lines {
			sc.Train(l)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		sc.Rebuild()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		rebuildUS = append(rebuildUS, d.Seconds()*1e6)
		rebuildKB = append(rebuildKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	t.set("compress.sc_rebuild_us", benchkit.Median(rebuildUS))
	t.set("compress.sc_rebuild_kb", benchkit.Median(rebuildKB))

	for _, c := range []struct {
		name  string
		codec compress.Codec
	}{{"BDI", compress.NewBDI()}, {"SC", sc}} {
		var ns []float64
		var raw, packed int
		for i := 0; i < repeats; i++ {
			raw, packed = 0, 0
			t0 := time.Now()
			for _, l := range lines {
				packed += c.codec.Measure(l).Size
				raw += compress.LineSize
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
		}
		t.set("compress.measure_ns."+c.name, benchkit.Median(ns))
		t.set("compress.ratio."+c.name, float64(raw)/float64(packed))
	}
}

type missAt struct{ addr, cycle uint64 }

// missStream replays the trace through per-SM compressed caches, as
// tracefile.Replay does, and returns the read misses in trace order plus
// every read address.
func missStream(trace []byte, cacheCfg cache.Config, factory sim.ControllerFactory, data interface{ Line(uint64) []byte }) ([]missAt, []uint64, error) {
	rd, err := tracefile.NewReader(bytes.NewReader(trace))
	if err != nil {
		return nil, nil, err
	}
	numSets := cacheCfg.SizeBytes / (cacheCfg.LineSize * cacheCfg.Ways)
	caches := map[int]*cache.Cache{}
	var misses []missAt
	var reads []uint64
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if rec.Write {
			continue
		}
		c := caches[rec.SM]
		if c == nil {
			cfg := cacheCfg
			cfg.Codecs = [modes.NumModes]compress.Codec{modes.LowLat: compress.NewBDI(), modes.HighCap: compress.NewSC()}
			c = cache.New(cfg, factory(numSets))
			caches[rec.SM] = c
		}
		reads = append(reads, rec.Addr)
		if !c.Access(rec.Addr, rec.Cycle).Hit {
			misses = append(misses, missAt{rec.Addr, rec.Cycle})
			c.Fill(rec.Addr, data.Line(rec.Addr/uint64(cacheCfg.LineSize)), rec.Cycle)
		}
	}
	return misses, reads, nil
}
