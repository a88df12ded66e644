package sim

import (
	"slices"
	"testing"

	"lattecc/internal/invariant"
	"lattecc/internal/trace"
)

// paranoid turns on the invariant layer for one test, so schedule's
// brute-force ready-set check and nextEvent's wake check run every cycle.
func paranoid(t *testing.T) {
	t.Helper()
	prev := invariant.SetActive(true)
	t.Cleanup(func() { invariant.SetActive(prev) })
}

// positions lists the set positions of a bitset.
func positions(b []uint64) []int {
	var out []int
	for p := lowestAbove(b, -1); p >= 0; p = lowestAbove(b, p) {
		out = append(out, p)
	}
	return out
}

// TestWakeWheelAndHeap drives one scheduler's readiness structures
// directly: wheel and heap wakes, a drain that jumps further than the
// wheel spans, the wheel window edge, and a stale entry.
func TestWakeWheelAndHeap(t *testing.T) {
	ws := make([]*warp, 8)
	for i := range ws {
		ws[i] = &warp{id: i, pos: i}
	}
	st := newSchedState(len(ws))
	at := func(p int, cycle uint64) {
		ws[p].nextFree = cycle
		st.wake(p, cycle)
	}
	at(0, 10)  // wheel
	at(1, 64)  // wheel, last slot of the window (0, 64]
	at(2, 65)  // heap: past the window
	at(3, 500) // heap
	at(4, 20)  // wheel, then retires: stale
	at(5, 0)   // due already: ready at once
	ws[4].flags = wDone
	st.park(4)

	if got := positions(st.ready); !slices.Equal(got, []int{5}) {
		t.Fatalf("ready before any drain = %v, want [5]", got)
	}
	if got := st.nextWake(); got != 10 {
		t.Fatalf("nextWake = %d, want 10", got)
	}
	st.drain(ws, 9)
	if got := positions(st.ready); !slices.Equal(got, []int{5}) {
		t.Fatalf("ready at 9 = %v, want [5]", got)
	}
	// Jump 191 cycles in one drain, as Sim.Run's fast-forward does.
	st.drain(ws, 200)
	if got := positions(st.ready); !slices.Equal(got, []int{0, 1, 2, 5}) {
		t.Fatalf("ready at 200 = %v, want [0 1 2 5] (the retired warp's wake is stale)", got)
	}
	if st.wheelMask != 0 {
		t.Fatalf("wheel not empty after a jump past its span: mask %#x", st.wheelMask)
	}
	if got := st.nextWake(); got != 500 {
		t.Fatalf("nextWake = %d, want 500", got)
	}

	// Window edge: drained = 200, so cycle 264 is the last wheel cycle
	// and shares slot 8 with cycle 200; draining to 263 must not fire it.
	at(6, 264)
	at(7, 201)
	if got := st.nextWake(); got != 201 {
		t.Fatalf("nextWake = %d, want 201", got)
	}
	st.drain(ws, 263)
	if bitHas(st.ready, 6) || !bitHas(st.ready, 7) {
		t.Fatalf("ready at 263 = %v, want 7 without 6", positions(st.ready))
	}
	st.drain(ws, 264)
	if !bitHas(st.ready, 6) {
		t.Fatalf("position 6 not ready at 264: %v", positions(st.ready))
	}
	st.drain(ws, 500)
	if !bitHas(st.ready, 3) || st.nextWake() != ^uint64(0) {
		t.Fatalf("heap wake at 500 missed: ready %v, nextWake %d", positions(st.ready), st.nextWake())
	}
	if got := positions(st.active); !slices.Equal(got, []int{0, 1, 2, 3, 5, 6, 7}) {
		t.Fatalf("active = %v", got)
	}
}

func TestPickWarpMultiword(t *testing.T) {
	ready := make([]uint64, 3)
	for _, p := range []int{5, 70, 130} {
		bitSet(ready, p)
	}
	cases := []struct {
		kind     SchedulerKind
		last     int
		lastLive bool
		want     int
	}{
		{SchedGTO, -1, false, 5},
		{SchedGTO, 70, true, 70},   // greedy
		{SchedGTO, 71, true, 5},    // last warp not ready: oldest
		{SchedGTO, 70, false, 5},   // last warp gone: no greedy claim
		{SchedRR, -1, false, 5},    // start
		{SchedRR, 5, true, 70},     // next above, across a word
		{SchedRR, 70, false, 130},  // resumes above a removed warp
		{SchedRR, 130, true, 5},    // wrap-around
		{SchedRR, 191, false, 5},   // wrap from past the end
		{SchedRR, 63, true, 70},    // word boundary
		{SchedRR, 127, false, 130}, // word boundary
	}
	for _, tc := range cases {
		got, ok := PickWarp(tc.kind, ready, tc.last, tc.lastLive)
		if !ok || got != tc.want {
			t.Errorf("PickWarp(%v, last=%d live=%v) = %d, %v; want %d", tc.kind, tc.last, tc.lastLive, got, ok, tc.want)
		}
	}
	if _, ok := PickWarp(SchedGTO, make([]uint64, 3), 4, true); ok {
		t.Error("PickWarp with nothing ready must report ok=false")
	}
}

// TestSchedStateRemove pins how removals move the last-issue position:
// below it shifts it down, at it ends the greedy claim but keeps RR's
// place.
func TestSchedStateRemove(t *testing.T) {
	st := NewSchedState()
	ready := make([]uint64, 1)
	bitSet(ready, 3)
	if pos, ok := st.Select(SchedRR, ready); !ok || pos != 3 {
		t.Fatalf("Select = %d, %v", pos, ok)
	}
	st.Remove(1) // below: the warp moves to position 2
	if pos, live := st.Last(); pos != 2 || !live {
		t.Fatalf("after removing below: last %d live %v, want 2 true", pos, live)
	}
	st.Remove(5) // above: nothing moves
	st.Remove(2) // the last issued warp itself
	if pos, live := st.Last(); pos != 1 || live {
		t.Fatalf("after removing the last warp: last %d live %v, want 1 false", pos, live)
	}
	ready[0] = 1<<1 | 1<<2
	// RR resumes above where the removed warp stood; it is a switch.
	if pos, _ := st.Select(SchedRR, ready); pos != 2 || st.Switches != 2 || st.ReadySum != 1 {
		t.Fatalf("Select = %d (switches %d, readySum %d), want 2 (2, 1)", pos, st.Switches, st.ReadySum)
	}
}

// sliceWL is a single-kernel workload from per-warp instruction lists.
type sliceWL struct {
	blocks, warps int
	prog          func(block, warp int) []trace.Inst
}

func (sliceWL) Name() string             { return "slice" }
func (sliceWL) Category() trace.Category { return trace.CInSens }
func (sliceWL) Data() trace.DataSource   { return testData{} }
func (w sliceWL) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "k", Blocks: w.blocks, WarpsPerBlock: w.warps,
		Program: func(block, warp int) trace.Program {
			return trace.NewSliceProgram(w.prog(block, warp))
		},
	}}
}

func oneSM() Config {
	cfg := smallConfig()
	cfg.NumSMs = 1
	return cfg
}

// TestLongWaitFastForward: a lone warp's 300-cycle ALU wait is a heap
// wake that Run's fast-forward jumps to in one step, past the wheel.
func TestLongWaitFastForward(t *testing.T) {
	paranoid(t)
	w := sliceWL{blocks: 1, warps: 1, prog: func(int, int) []trace.Inst {
		return []trace.Inst{{Op: trace.OpALU, Lat: 300}, {Op: trace.OpALU, Lat: 70}, {Op: trace.OpALU, Lat: 1}}
	}}
	res := run(t, oneSM(), w, baselineFactory)
	// Issues at 0, 300 and 370; the retire at 371 ends the kernel.
	if res.Cycles != 372 || res.Instructions != 3 {
		t.Fatalf("cycles %d insts %d, want 372 and 3", res.Cycles, res.Instructions)
	}
}

// TestBarrierReleaseWakesNextCycle: the last arrival releases the block
// for the next cycle through the wheel.
func TestBarrierReleaseWakesNextCycle(t *testing.T) {
	paranoid(t)
	w := sliceWL{blocks: 1, warps: 2, prog: func(_, warp int) []trace.Inst {
		if warp == 0 {
			return []trace.Inst{{Op: trace.OpALU, Lat: 50}, {Op: trace.OpBarrier}, {Op: trace.OpALU, Lat: 1}}
		}
		return []trace.Inst{{Op: trace.OpBarrier}, {Op: trace.OpALU, Lat: 1}}
	}}
	res := run(t, oneSM(), w, baselineFactory)
	// Warp 1 waits from cycle 0; warp 0 arrives at 50, both issue at 51
	// and retire at 52.
	if res.Cycles != 53 || res.Instructions != 5 {
		t.Fatalf("cycles %d insts %d, want 53 and 5", res.Cycles, res.Instructions)
	}
}

// TestDivergentRetireReleasesBarrier: a sibling's retire releases the
// waiting warp for the same cycle (a wake at 0 lands in ready at once),
// so the later scheduler issues it before the cycle ends.
func TestDivergentRetireReleasesBarrier(t *testing.T) {
	paranoid(t)
	w := sliceWL{blocks: 1, warps: 2, prog: func(_, warp int) []trace.Inst {
		if warp == 0 {
			return []trace.Inst{{Op: trace.OpALU, Lat: 100}}
		}
		return []trace.Inst{{Op: trace.OpBarrier}, {Op: trace.OpALU, Lat: 1}}
	}}
	res := run(t, oneSM(), w, baselineFactory)
	// Warp 0 retires at 100 on scheduler 0; warp 1 (scheduler 1) issues
	// its ALU at 100 and retires at 101.
	if res.Cycles != 102 || res.Instructions != 3 {
		t.Fatalf("cycles %d insts %d, want 102 and 3", res.Cycles, res.Instructions)
	}
}

// parityWL is a multi-kernel test workload (testWorkload is single-kernel).
type parityWL struct {
	name    string
	kernels []trace.Kernel
}

func (w parityWL) Name() string            { return w.name }
func (parityWL) Category() trace.Category  { return trace.CSens }
func (w parityWL) Kernels() []trace.Kernel { return w.kernels }
func (parityWL) Data() trace.DataSource    { return testData{} }

// parityWorkload is larger and more irregular than the other test
// workloads: two kernels, mixed phases, stores, barriers, divergence,
// and enough warps that SMs interleave through the LSU, the MSHRs, and
// the shared L2 banks.
func parityWorkload() trace.Workload {
	kernelA := trace.Kernel{
		Name:          "parity-a",
		Blocks:        12,
		WarpsPerBlock: 4,
		Program: func(block, warp int) trace.Program {
			insts := make([]trace.Inst, 0, 260)
			base := uint64(block*4+warp) * 37
			for i := 0; i < 60; i++ {
				line := (base + uint64(i)*7) % 2048
				insts = append(insts, trace.Inst{Op: trace.OpLoad, Addrs: []uint64{line * 128}})
				insts = append(insts, trace.Inst{Op: trace.OpALU, Lat: uint32(1 + i%5)})
				if i%9 == 0 {
					insts = append(insts, trace.Inst{Op: trace.OpStore, Addrs: []uint64{(line + 4096) * 128}})
				}
				if i%20 == 19 {
					insts = append(insts, trace.Inst{Op: trace.OpBarrier})
				}
			}
			return trace.NewSliceProgram(insts)
		},
	}
	kernelB := trace.Kernel{
		Name:          "parity-b",
		Blocks:        8,
		WarpsPerBlock: 6,
		Program: func(block, warp int) trace.Program {
			insts := make([]trace.Inst, 0, 200)
			seed := uint64(block*6 + warp)
			for i := 0; i < 40; i++ {
				// Divergent loads: up to 4 distinct lines per instruction.
				n := 1 + int((seed+uint64(i))%4)
				addrs := make([]uint64, 0, n)
				for j := 0; j < n; j++ {
					line := (seed*131 + uint64(i)*17 + uint64(j)*911) % 4096
					addrs = append(addrs, line*128)
				}
				insts = append(insts, trace.Inst{Op: trace.OpLoad, Addrs: addrs})
				insts = append(insts, trace.Inst{Op: trace.OpALU, Lat: 2})
			}
			return trace.NewSliceProgram(insts)
		},
	}
	return parityWL{name: "parity", kernels: []trace.Kernel{kernelA, kernelB}}
}

// TestCompactionKeepsReadiness runs multi-block and multi-kernel work
// under both schedulers with the cross-checks on: blocks drain and
// compact mid-kernel, every kernel boundary compacts, and afterwards the
// lists and bitsets are empty.
func TestCompactionKeepsReadiness(t *testing.T) {
	paranoid(t)
	for _, kind := range []SchedulerKind{SchedGTO, SchedRR} {
		cfg := smallConfig()
		cfg.Scheduler = kind
		s := New(cfg, parityWorkload(), latteFactory)
		res := s.Run()
		if len(res.Kernels) != 2 || res.Instructions == 0 {
			t.Fatalf("%v: kernels %d insts %d", kind, len(res.Kernels), res.Instructions)
		}
		for _, m := range s.sms {
			for si := range m.scheds {
				st := &m.scheds[si]
				if len(m.schedWarps[si]) != 0 || anySet(st.active) || anySet(st.ready) {
					t.Fatalf("%v: SM %d sched %d not empty after the run", kind, m.id, si)
				}
			}
		}
	}
}

// TestMultiwordScheduler: 160 warps per SM puts more than 64 warps on a
// scheduler, so the bitsets span words. The run must pass the
// cross-checks and give the same StateHash when run twice.
func TestMultiwordScheduler(t *testing.T) {
	paranoid(t)
	w := testWorkload{name: "wide", blocks: 40, warps: 16, iters: 40, alu: 3, wsLines: 8, spread: 8}
	for _, kind := range []SchedulerKind{SchedGTO, SchedRR} {
		cfg := smallConfig()
		cfg.Scheduler = kind
		cfg.MaxWarpsPerSM = 160
		cfg.MaxBlocksPerSM = 10

		s := New(cfg, w, baselineFactory)
		k := w.Kernels()[0]
		for b := 0; s.sms[0].launchBlock(k, b); b++ {
		}
		if n := len(s.sms[0].schedWarps[0]); n <= 64 || len(s.sms[0].scheds[0].ready) < 2 {
			t.Fatalf("%v: scheduler 0 holds %d warps in %d words; the test needs more than one word",
				kind, n, len(s.sms[0].scheds[0].ready))
		}

		var hashes [2]uint64
		for i := range hashes {
			res := New(cfg, w, latteFactory).Run()
			if want := uint64(40 * 16 * 40 * 4); res.Instructions != want {
				t.Fatalf("%v run %d: instructions %d, want %d", kind, i, res.Instructions, want)
			}
			hashes[i] = res.StateHash()
		}
		if hashes[0] != hashes[1] {
			t.Fatalf("%v: StateHash %#x on the second run, %#x on the first", kind, hashes[1], hashes[0])
		}
	}
}
