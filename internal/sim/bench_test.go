package sim

import (
	"testing"

	"lattecc/internal/trace"
)

// endlessProgram never retires: every warp keeps issuing, so the resident
// warp set stays fixed for the whole benchmark. Every memEvery-th
// instruction (0 = never) is a load from a scattered line over a
// footprint larger than L2; the rest are short ALU ops.
type endlessProgram struct {
	warp, memEvery int
	i              int
	addr           [1]uint64
}

func (p *endlessProgram) Next() (trace.Inst, bool) {
	p.i++
	if p.memEvery > 0 && p.i%p.memEvery == 0 {
		line := (uint64(p.warp)*7919 + uint64(p.i)*104729) % (1 << 16)
		p.addr[0] = line * 128
		return trace.Inst{Op: trace.OpLoad, Addrs: p.addr[:]}, true
	}
	return trace.Inst{Op: trace.OpALU, Lat: uint32(1 + p.i%4)}, true
}

type endlessWL struct{ memEvery int }

func (endlessWL) Name() string             { return "endless" }
func (endlessWL) Category() trace.Category { return trace.CSens }
func (endlessWL) Data() trace.DataSource   { return testData{} }
func (w endlessWL) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "endless", Blocks: 1 << 20, WarpsPerBlock: 8,
		Program: func(block, warp int) trace.Program {
			return &endlessProgram{warp: block*8 + warp, memEvery: w.memEvery}
		},
	}}
}

// BenchmarkSchedule is the scheduler/issue layer bench: one SM with the
// Table II warp set (48 resident warps, 2 schedulers) running programs
// that never end. One op is one simulated SM-cycle — LSU drain,
// schedule/issue, the arbiter and the commit — so ns/op is the host cost
// of a scheduled SM-cycle. "compute" is ALU-only (every cycle has ready
// warps to pick from); "memory" makes every 4th instruction a missing
// load, so most warps wait on memory and few are ready.
func BenchmarkSchedule(b *testing.B) {
	for _, tc := range []struct {
		name     string
		memEvery int
	}{{"compute", 0}, {"memory", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumSMs = 1
			s := New(cfg, endlessWL{memEvery: tc.memEvery}, baselineFactory)
			m := s.sms[0]
			k := s.work.Kernels()[0]
			for blk := 0; m.launchBlock(k, blk); blk++ {
			}
			now := uint64(0)
			cycle := func() {
				m.tick(now)
				now++
			}
			for i := 0; i < 20000; i++ { // reach steady state
				cycle()
			}
			insts := m.instructions
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			b.ReportMetric(float64(m.instructions-insts)/float64(b.N), "insts/cycle")
		})
	}
}
