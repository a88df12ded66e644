package sim

import (
	"lattecc/internal/cache"
	"lattecc/internal/invariant"
	"lattecc/internal/mem"
	"lattecc/internal/modes"
	"lattecc/internal/trace"
)

// Warp blocking flags. The three blocking conditions share one byte next
// to nextFree: a warp is schedulable when flags == 0 and ready when, in
// addition, nextFree has passed. The scheduler tracks both incrementally
// (schedState); every change to flags or nextFree goes through sm.wakeAt
// or sm.park so the bitsets follow.
const (
	wDone       uint8 = 1 << iota // retired
	wBlockedMem                   // waiting for an in-flight memory request
	wAtBarrier                    // waiting for the rest of its thread block
)

// warp is one resident warp's execution state.
type warp struct {
	id        int
	sched     int // owning scheduler
	pos       int // index in s.schedWarps[sched]
	blockSlot int
	prog      trace.Program
	cur       trace.Inst
	hasCur    bool

	nextFree uint64 // cycle at which the warp may issue again
	flags    uint8  // wDone | wBlockedMem | wAtBarrier; 0 = schedulable
	insts    uint64
}

// wakeAt makes w (flags == 0) schedulable again and ready from cycle at.
//
//lint:hotpath
func (s *sm) wakeAt(w *warp, at uint64) {
	w.nextFree = at
	s.scheds[w.sched].wake(w.pos, at)
}

// park takes w out of its scheduler's active and ready sets after it
// blocked or retired.
//
//lint:hotpath
func (s *sm) park(w *warp) {
	s.scheds[w.sched].park(w.pos)
}

// memReqAddrCap bounds the inline address buffer: a warp has 32 threads,
// so a memory instruction coalesces into at most 32 transactions.
const memReqAddrCap = 32

// memReq is a warp memory instruction draining through the LSU: its
// remaining coalesced transactions and the latest data-ready time so far.
// Requests are pooled per SM and their addresses copied into the inline
// buffer at issue, so the LSU allocates nothing in steady state (and the
// program generator may reuse its Addrs backing array, per the
// trace.Program contract).
type memReq struct {
	w        *warp
	addrs    []uint64 // aliases buf except for >32-way requests
	next     int
	readyMax uint64
	isStore  bool
	buf      [memReqAddrCap]uint64
}

// fillEvent is a pending L1 fill (miss response).
type fillEvent struct {
	at       uint64
	lineAddr uint64
}

// fillHeap is a binary min-heap on fillEvent.at with concrete push/pop
// (container/heap's interface indirection boxed every event).
type fillHeap []fillEvent

func (h *fillHeap) push(ev fillEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// pop removes and returns the earliest event. Ties on at are broken by
// heap layout — deterministic, since the push sequence is.
func (h *fillHeap) pop() fillEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s[r].at < s[l].at {
			c = r
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// mshrEntry is one outstanding L1 miss and the cycle its fill arrives.
type mshrEntry struct {
	lineAddr uint64
	fillAt   uint64
}

// blockSlot tracks one resident thread block.
type blockSlot struct {
	active    bool
	remaining int // warps not yet done
	atBarrier int // warps currently waiting at the block barrier
}

// sm is one streaming multiprocessor. Its L1 misses and stores go
// straight to the shared mem.System, which Sim.Run ticks SMs against in
// id order.
type sm struct {
	id     int
	cfg    *Config
	l1     *cache.Cache
	ctrl   modes.Controller
	mem    *mem.System
	data   trace.DataSource
	warps  []*warp
	slots  []blockSlot
	scheds []schedState
	// schedWarps holds each scheduler's warps (same membership and order
	// as the warps slice filtered by sched). A warp's index here is its
	// position in the scheduler's readiness bitsets.
	schedWarps [][]*warp
	liveWarps  int

	// lsu is the in-order load/store queue; lsuHead indexes the current
	// front so dequeuing doesn't reslice away buffer capacity.
	lsu     []*memReq
	lsuHead int
	reqFree []*memReq // memReq pool

	// mshr holds outstanding misses. A linear scan over at most
	// Config.MSHRs (32) entries beats map hashing at this size, and a
	// slice has no iteration-order hazard.
	mshr  []mshrEntry
	fills fillHeap

	// missLat holds this cycle's miss latencies in issue order; tick
	// feeds them to the controller after the cycle's L1 accesses.
	missLat []uint64

	hitSample uint64 // hit counter for VFT sampling

	// probe window bookkeeping
	windowStart   uint64
	lastTolerance float64
	nextWarpID    int

	instructions uint64
	loadTxns     uint64
	storeTxns    uint64
	stallMSHR    uint64

	// lineFill + lineBuf render line data into a per-SM scratch buffer
	// when the data source supports it (the cache never retains fill
	// slices, so reuse is safe).
	lineFill trace.LineFiller
	lineBuf  []byte
}

func newSM(id int, cfg *Config, ctrl modes.Controller, cacheCfg cache.Config, m *mem.System, data trace.DataSource) *sm {
	s := &sm{
		id:         id,
		cfg:        cfg,
		ctrl:       ctrl,
		mem:        m,
		data:       data,
		l1:         cache.New(cacheCfg, ctrl),
		slots:      make([]blockSlot, cfg.MaxBlocksPerSM),
		scheds:     make([]schedState, cfg.SchedulersPerSM),
		schedWarps: make([][]*warp, cfg.SchedulersPerSM),
		mshr:       make([]mshrEntry, 0, cfg.MSHRs),
		missLat:    make([]uint64, 0, cfg.L1Ports),
	}
	for i := range s.scheds {
		s.scheds[i] = newSchedState(cfg.MaxWarpsPerSM)
	}
	if lf, ok := data.(trace.LineFiller); ok {
		s.lineFill = lf
		s.lineBuf = make([]byte, cfg.Cache.LineSize)
	}
	return s
}

// line returns the backing data of lineAddr, using the per-SM scratch
// buffer when the source supports in-place rendering.
func (s *sm) line(lineAddr uint64) []byte {
	if s.lineFill != nil {
		s.lineFill.LineInto(s.lineBuf, lineAddr)
		return s.lineBuf
	}
	return s.data.Line(lineAddr)
}

// allocReq takes a request from the pool (fields zeroed by releaseReq).
func (s *sm) allocReq() *memReq {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return new(memReq)
}

// releaseReq returns a finished request to the pool.
func (s *sm) releaseReq(r *memReq) {
	r.w = nil
	r.addrs = nil
	r.next = 0
	r.readyMax = 0
	r.isStore = false
	s.reqFree = append(s.reqFree, r)
}

// newMemReq builds a pooled request, copying the instruction's addresses
// out of the program's (reusable) backing array.
func (s *sm) newMemReq(w *warp, addrs []uint64, store bool) *memReq {
	r := s.allocReq()
	r.w = w
	r.isStore = store
	if len(addrs) <= memReqAddrCap {
		n := copy(r.buf[:], addrs)
		r.addrs = r.buf[:n]
	} else {
		r.addrs = append([]uint64(nil), addrs...)
	}
	return r
}

// freeWarpSlots returns how many more warps the SM can host.
func (s *sm) freeWarpSlots() int {
	return s.cfg.MaxWarpsPerSM - len(s.warps)
}

// freeBlockSlot returns an inactive block slot index or -1.
func (s *sm) freeBlockSlot() int {
	for i := range s.slots {
		if !s.slots[i].active {
			return i
		}
	}
	return -1
}

// launchBlock installs a block's warps onto the SM.
func (s *sm) launchBlock(k trace.Kernel, block int) bool {
	slot := s.freeBlockSlot()
	if slot < 0 || s.freeWarpSlots() < k.WarpsPerBlock {
		return false
	}
	s.slots[slot] = blockSlot{active: true, remaining: k.WarpsPerBlock}
	ws := make([]warp, k.WarpsPerBlock)
	for wi := range ws {
		w := &ws[wi]
		w.id = s.nextWarpID
		w.sched = s.nextWarpID % s.cfg.SchedulersPerSM
		w.blockSlot = slot
		w.prog = k.Program(block, wi)
		w.pos = len(s.schedWarps[w.sched])
		s.nextWarpID++
		s.warps = append(s.warps, w)
		s.schedWarps[w.sched] = append(s.schedWarps[w.sched], w)
		s.wakeAt(w, 0) // fresh warps are ready immediately
	}
	s.liveWarps += k.WarpsPerBlock
	return true
}

// compactWarps drops retired warps, freeing warp slots for new blocks.
// It is the only place positions change: each scheduler's last-issue
// position follows its warp's removal, and the readiness structures are
// rebuilt from the compacted list.
func (s *sm) compactWarps() {
	live := s.warps[:0]
	for _, w := range s.warps {
		if w.flags&wDone == 0 {
			live = append(live, w)
		}
	}
	for i := len(live); i < len(s.warps); i++ {
		s.warps[i] = nil
	}
	s.warps = live
	for si := range s.schedWarps {
		st := &s.scheds[si]
		ws := s.schedWarps[si]
		lw := ws[:0]
		for _, w := range ws {
			if w.flags&wDone != 0 {
				// Earlier removals have shifted this warp down to len(lw).
				st.Remove(len(lw))
				continue
			}
			w.pos = len(lw)
			lw = append(lw, w)
		}
		if len(lw) == len(ws) {
			continue
		}
		for i := len(lw); i < len(ws); i++ {
			ws[i] = nil
		}
		s.schedWarps[si] = lw
		st.rebuild(lw)
	}
}

// busy reports whether the SM still has work (live warps or in-flight
// memory activity).
func (s *sm) busy() bool {
	return s.liveWarps > 0 || len(s.lsu) > s.lsuHead || len(s.fills) > 0
}

// nextEvent returns the earliest cycle at which this SM can do any work:
// the next pending fill, the next pending warp wake, or the
// tolerance-window boundary (probeTolerance fires there and must observe
// the same `now` as a cycle-by-cycle run). A queued LSU request or a
// ready warp makes the next cycle busy, so the method returns 0 in those
// cases. Between ticks every blockedOnMem warp still has its request in
// the LSU queue, which is what lets Sim.Run prove cycles up to the
// returned value are no-ops and fast-forward across them without
// changing a single counter.
func (s *sm) nextEvent() uint64 {
	if s.lsuHead < len(s.lsu) {
		return 0
	}
	next := s.windowStart + s.cfg.ToleranceWindow
	if len(s.fills) > 0 && s.fills[0].at < next {
		next = s.fills[0].at
	}
	for si := range s.scheds {
		st := &s.scheds[si]
		if anySet(st.ready) {
			next = 0
			break
		}
		if at := st.nextWake(); at < next {
			next = at
		}
	}
	if invariant.Active() {
		s.checkNextEvent(next)
	}
	return next
}

// checkNextEvent is the paranoid cross-check of nextEvent's wake term: a
// scan of every schedulable warp must not find one that becomes ready
// before the returned cycle (stale wakes may only make it earlier).
func (s *sm) checkNextEvent(got uint64) {
	for _, w := range s.warps {
		if w.flags == 0 && w.nextFree < got {
			invariant.Violationf("sim: SM %d nextEvent %d skips warp %d ready at %d", s.id, got, w.id, w.nextFree)
		}
	}
}

// tick advances the SM by one cycle and returns the instructions it
// issued: fills, the LSU drain against the memory system, scheduling,
// then the cycle's miss latencies and the tolerance probe. The
// controller sees the miss latencies after the cycle's L1 accesses, so
// an EP boundary inside RecordAccess reads the latency average as of the
// previous cycle.
func (s *sm) tick(now uint64) uint64 {
	s.applyFills(now)
	s.drainLSU(now)
	issued := s.schedule(now)
	for _, lat := range s.missLat {
		s.ctrl.RecordMissLatency(lat)
	}
	s.missLat = s.missLat[:0]
	s.probeTolerance(now)
	return issued
}

// unblockMem releases a warp whose memory instruction has drained; it
// may issue again from cycle ready.
func (s *sm) unblockMem(w *warp, ready uint64) {
	w.flags &^= wBlockedMem
	w.nextFree = ready
	if w.flags == 0 {
		s.wakeAt(w, ready)
	}
}

// applyFills installs miss responses whose data has arrived.
func (s *sm) applyFills(now uint64) {
	for len(s.fills) > 0 && s.fills[0].at <= now {
		ev := s.fills.pop()
		s.mshrRemove(ev.lineAddr)
		lineSize := uint64(s.cfg.Cache.LineSize)
		s.l1.Fill(ev.lineAddr*lineSize, s.line(ev.lineAddr), now)
	}
}

// mshrLookup returns the index of lineAddr's MSHR or -1.
func (s *sm) mshrLookup(lineAddr uint64) int {
	for i := range s.mshr {
		if s.mshr[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// mshrRemove frees lineAddr's MSHR (swap-remove).
func (s *sm) mshrRemove(lineAddr uint64) {
	if i := s.mshrLookup(lineAddr); i >= 0 {
		n := len(s.mshr) - 1
		s.mshr[i] = s.mshr[n]
		s.mshr = s.mshr[:n]
	}
}

// drainLSU processes up to L1Ports transactions from the LSU queue.
func (s *sm) drainLSU(now uint64) {
	budget := s.cfg.L1Ports
	for budget > 0 && s.lsuHead < len(s.lsu) {
		req := s.lsu[s.lsuHead]
		if req.isStore {
			addr := req.addrs[req.next]
			if s.cfg.Trace != nil {
				s.cfg.Trace.Record(s.id, now, addr, true)
			}
			if s.cfg.WriteThroughL1 {
				// Write-through: a write hit updates (and expands) the
				// cached copy before the store proceeds to L2.
				s.l1.WriteTouch(addr, now)
			}
			// Stores always go to L2 (write-avoid bypasses L1 entirely,
			// Section IV-C3).
			s.mem.Write(addr, now)
			s.storeTxns++
			req.next++
		} else {
			if !s.loadTxn(req, now) {
				// MSHR full: head-of-line block until entries free up.
				s.stallMSHR++
				return
			}
			s.loadTxns++
			req.next++
		}
		budget--
		if req.next >= len(req.addrs) {
			s.lsu[s.lsuHead] = nil
			s.lsuHead++
			if s.lsuHead == len(s.lsu) {
				s.lsu = s.lsu[:0]
				s.lsuHead = 0
			}
			if !req.isStore {
				// The ready time is final and always > now, so the warp
				// cannot issue before the next cycle.
				s.unblockMem(req.w, req.readyMax)
			}
			s.releaseReq(req)
		}
	}
}

// loadTxn performs one load transaction; it returns false if the
// transaction needs an MSHR and none is free.
func (s *sm) loadTxn(req *memReq, now uint64) bool {
	addr := req.addrs[req.next]
	lineSize := uint64(s.cfg.Cache.LineSize)
	lineAddr := addr / lineSize

	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(s.id, now, addr, false)
	}
	res := s.l1.Access(addr, now)
	if res.Hit {
		if res.Ready > req.readyMax {
			req.readyMax = res.Ready
		}
		// Sample hit values into the high-capacity VFT (1 in 16 hits):
		// the table tracks value *use* frequency, and hit-dominated
		// phases would otherwise never refresh it. Caches that never
		// train skip the sample and its line render.
		if s.l1.TrainsHighCap() {
			s.hitSample++
			if s.hitSample&0xF == 0 {
				s.l1.TrainHighCap(s.line(lineAddr))
			}
		}
		return true
	}
	// Miss: merge into an in-flight fetch if one exists.
	var fillAt uint64
	if mi := s.mshrLookup(lineAddr); mi >= 0 {
		fillAt = s.mshr[mi].fillAt
	} else {
		if len(s.mshr) >= s.cfg.MSHRs {
			return false
		}
		fillAt = s.mem.Read(addr, now)
		s.mshr = append(s.mshr, mshrEntry{lineAddr: lineAddr, fillAt: fillAt})
		s.fills.push(fillEvent{at: fillAt, lineAddr: lineAddr})
		s.missLat = append(s.missLat, fillAt-now)
	}
	if ready := fillAt + s.cfg.Cache.HitLatency; ready > req.readyMax {
		req.readyMax = ready
	}
	return true
}

// schedule runs each warp scheduler once (one issue per scheduler per
// cycle, Table II: 2 schedulers per SM). Readiness is incremental: the
// scheduler's due wakes move into its ready bitset, and SchedState.Select
// — the same call the differential oracle makes — does the tolerance-probe
// accounting and the pick. No warp list is scanned.
//
//lint:hotpath
func (s *sm) schedule(now uint64) uint64 {
	var issued uint64
	for si := range s.scheds {
		st := &s.scheds[si]
		ws := s.schedWarps[si]
		st.drain(ws, now)
		if invariant.Active() {
			s.checkReady(si, now)
		}
		pos, ok := st.Select(s.cfg.Scheduler, st.ready)
		if !ok {
			continue
		}
		if s.issue(ws[pos], now) {
			st.Issues++
			issued++
		}
	}
	return issued
}

// checkReady is the paranoid cross-check of schedule's bitsets: a
// brute-force scan of scheduler si's warps must give the same active and
// ready sets, and every warp must sit at its recorded position.
func (s *sm) checkReady(si int, now uint64) {
	st := &s.scheds[si]
	ws := s.schedWarps[si]
	for p := 0; p < len(st.ready)*64; p++ {
		var active, ready bool
		if p < len(ws) {
			w := ws[p]
			if w.pos != p {
				invariant.Violationf("sim: SM %d sched %d warp %d at position %d records %d", s.id, si, w.id, p, w.pos)
			}
			active = w.flags == 0
			ready = active && w.nextFree <= now
		}
		if bitHas(st.active, p) != active || bitHas(st.ready, p) != ready {
			invariant.Violationf("sim: SM %d sched %d cycle %d position %d: bitsets active=%v ready=%v, scan active=%v ready=%v",
				s.id, si, now, p, bitHas(st.active, p), bitHas(st.ready, p), active, ready)
		}
	}
}

// issue executes one instruction from the warp; it returns false when the
// warp had no instruction left (it retires instead).
func (s *sm) issue(w *warp, now uint64) bool {
	if !w.hasCur {
		inst, ok := w.prog.Next()
		if !ok {
			s.retire(w)
			return false
		}
		w.cur, w.hasCur = inst, true
	}
	inst := w.cur
	w.hasCur = false
	w.insts++
	s.instructions++

	switch inst.Op {
	case trace.OpALU:
		lat := uint64(inst.Lat)
		if lat == 0 {
			lat = 1
		}
		s.wakeAt(w, now+lat)
	case trace.OpLoad:
		if len(inst.Addrs) == 0 {
			s.wakeAt(w, now+1)
			return true
		}
		w.flags |= wBlockedMem
		s.park(w)
		s.lsu = append(s.lsu, s.newMemReq(w, inst.Addrs, false))
	case trace.OpStore:
		s.wakeAt(w, now+1)
		if len(inst.Addrs) > 0 {
			s.lsu = append(s.lsu, s.newMemReq(w, inst.Addrs, true))
		}
	case trace.OpBarrier:
		s.arriveBarrier(w, now)
	default:
		s.wakeAt(w, now+1)
	}
	return true
}

// arriveBarrier parks the warp at its block's barrier, releasing the
// whole block once every live warp has arrived.
func (s *sm) arriveBarrier(w *warp, now uint64) {
	slot := &s.slots[w.blockSlot]
	w.flags |= wAtBarrier
	s.park(w)
	slot.atBarrier++
	if slot.atBarrier < slot.remaining {
		return
	}
	// Last arrival: release everyone next cycle.
	slot.atBarrier = 0
	s.releaseBarrier(w.blockSlot, now+1)
}

// releaseBarrier frees every warp of the block in slot bs that waits at
// its barrier; they may issue from cycle at.
func (s *sm) releaseBarrier(bs int, at uint64) {
	for _, o := range s.warps {
		if o.flags&(wDone|wAtBarrier) == wAtBarrier && o.blockSlot == bs {
			o.flags &^= wAtBarrier
			o.nextFree = at
			if o.flags == 0 {
				s.wakeAt(o, at)
			}
		}
	}
}

// retire marks a warp finished and frees its block slot when the whole
// block has drained.
func (s *sm) retire(w *warp) {
	if w.flags&wDone != 0 {
		return
	}
	w.flags |= wDone
	s.park(w)
	s.liveWarps--
	slot := &s.slots[w.blockSlot]
	slot.remaining--
	if slot.remaining == 0 {
		slot.active = false
		s.compactWarps() // free warp slots so waiting blocks can launch
		return
	}
	// A warp can retire while siblings wait at a barrier (divergent exit);
	// if it was the last one missing, release the block.
	if slot.atBarrier > 0 && slot.atBarrier >= slot.remaining {
		slot.atBarrier = 0
		s.releaseBarrier(w.blockSlot, 0)
	}
}

// forceFinish terminates all warps (instruction budget exhausted). Run
// calls it between cycles.
func (s *sm) forceFinish() {
	// retire may compact the warp lists when a block drains, so restart
	// the scan after each retirement instead of ranging a stale header.
	for s.liveWarps > 0 {
		for _, w := range s.warps {
			if w.flags&wDone == 0 {
				s.retire(w)
				break
			}
		}
	}
	for i := s.lsuHead; i < len(s.lsu); i++ {
		s.releaseReq(s.lsu[i])
		s.lsu[i] = nil
	}
	s.lsu = s.lsu[:0]
	s.lsuHead = 0
}

// probeTolerance folds the Equation 4 terms into the controller at window
// boundaries:
//
//	latency_tolerance = avg_warps_available × avg_execution_cycles_per_schedule
//
// For a GTO scheduler, a stalled warp is covered for roughly (other ready
// warps) × (cycles each runs before switching) cycles. With a round-robin
// scheduler the run length is 1 and the estimate degenerates to the ready
// warp count, matching the paper's Section III-B2 discussion.
func (s *sm) probeTolerance(now uint64) {
	if now < s.windowStart+s.cfg.ToleranceWindow {
		return
	}
	window := float64(now - s.windowStart)
	if window <= 0 {
		window = 1
	}
	var tol float64
	for si := range s.scheds {
		st := &s.scheds[si]
		avgReady := float64(st.ReadySum) / window
		execPerSched := 1.0
		if st.Switches > 0 {
			execPerSched = float64(st.Issues) / float64(st.Switches)
		}
		t := avgReady * execPerSched
		if t > tol {
			tol = t
		}
		st.ReadySum, st.Issues, st.Switches = 0, 0, 0
	}
	if tol > s.cfg.ToleranceCap {
		tol = s.cfg.ToleranceCap
	}
	s.ctrl.RecordTolerance(tol)
	s.lastTolerance = tol
	s.windowStart = now
}
