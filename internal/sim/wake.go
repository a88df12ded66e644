package sim

import "math/bits"

// wheelSlots is the wake wheel's span in cycles: a wait of at most this
// many cycles past the last drain (ALU latency, the one-cycle store and
// barrier-release waits) lands in a wheel slot; longer waits (memory
// unblocks at fill time plus hit latency) go to the heap.
const wheelSlots = 64

// wakeEntry is a heap-held wake: the warp at position pos may issue from
// cycle at on.
type wakeEntry struct {
	at  uint64
	pos int32
}

// wakeHeap is a binary min-heap on wakeEntry.at, shaped like fillHeap.
type wakeHeap []wakeEntry

//lint:hotpath
func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
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

//lint:hotpath
func (h *wakeHeap) pop() wakeEntry {
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

// schedState is one warp scheduler: the shared selection state plus the
// readiness structures that replace a per-cycle scan of its warps.
//
// Positions index the scheduler's warp list (sm.schedWarps). The list
// only changes shape in sm.compactWarps, which calls rebuild, so between
// rebuilds a position names one warp.
//
//   - active holds the warps with flags == 0;
//   - ready holds the active warps with nextFree <= drained;
//   - a warp that is active but not yet ready has a pending wake at its
//     nextFree: in the wheel when that is at most wheelSlots cycles past
//     drained, otherwise in the heap.
//
// drain moves due wakes into ready. A popped wake is applied only if the
// warp is still active with nextFree equal to the wake's cycle, so an
// entry left behind by a warp that retired does no harm. Under
// invariant.Active, sm.checkReady re-derives ready and active by brute
// force every cycle and sm.nextEvent checks the earliest wake against a
// scan of every warp.
type schedState struct {
	SchedState

	active []uint64
	ready  []uint64
	// wheel[w*wheelSlots+slot] is word w of the positions waking at the
	// one cycle in (drained, drained+wheelSlots] congruent to slot;
	// wheelMask marks the slots with any position set.
	wheel     []uint64
	wheelMask uint64
	wakes     wakeHeap
	drained   uint64 // last cycle drain ran to
}

// newSchedState sizes a scheduler for up to maxWarps positions (a
// scheduler's list never outgrows the SM's warp slots).
func newSchedState(maxWarps int) schedState {
	words := (maxWarps + 63) / 64
	return schedState{
		SchedState: NewSchedState(),
		active:     make([]uint64, words),
		ready:      make([]uint64, words),
		wheel:      make([]uint64, words*wheelSlots),
		wakes:      make(wakeHeap, 0, maxWarps),
	}
}

// wake marks position pos active and schedules it to become ready at
// cycle at: at once when at <= drained, else through the wheel or heap.
//
//lint:hotpath
func (st *schedState) wake(pos int, at uint64) {
	bitSet(st.active, pos)
	if at <= st.drained {
		bitSet(st.ready, pos)
		return
	}
	bitClear(st.ready, pos)
	if at-st.drained <= wheelSlots {
		slot := at & (wheelSlots - 1)
		st.wheel[(pos>>6)*wheelSlots+int(slot)] |= 1 << uint(pos&63)
		st.wheelMask |= 1 << slot
		return
	}
	st.wakes.push(wakeEntry{at: at, pos: int32(pos)})
}

// park drops position pos from active and ready (the warp blocked or
// retired). Any wake it still has pending goes stale.
//
//lint:hotpath
func (st *schedState) park(pos int) {
	bitClear(st.active, pos)
	bitClear(st.ready, pos)
}

// drain applies every wake due by cycle now. A jump of wheelSlots or more
// cycles (Sim.Run's fast-forward) drains every wheel slot.
//
//lint:hotpath
func (st *schedState) drain(ws []*warp, now uint64) {
	if now <= st.drained {
		return
	}
	if mask := st.wheelMask; mask != 0 {
		base := st.drained + 1 // the slot of cycle base holds the earliest wheel cycle
		if span := now - st.drained; span < wheelSlots {
			mask &= bits.RotateLeft64(1<<span-1, int(base&(wheelSlots-1)))
		}
		st.wheelMask &^= mask
		for mask != 0 {
			slot := bits.TrailingZeros64(mask)
			mask &= mask - 1
			at := base + (uint64(slot)-base)&(wheelSlots-1)
			for wi := range st.ready {
				idx := wi*wheelSlots + slot
				b := st.wheel[idx]
				st.wheel[idx] = 0
				for b != 0 {
					p := wi<<6 | bits.TrailingZeros64(b)
					b &= b - 1
					if w := ws[p]; w.flags == 0 && w.nextFree == at {
						bitSet(st.ready, p)
					}
				}
			}
		}
	}
	for len(st.wakes) > 0 && st.wakes[0].at <= now {
		e := st.wakes.pop()
		if w := ws[e.pos]; w.flags == 0 && w.nextFree == e.at {
			bitSet(st.ready, int(e.pos))
		}
	}
	st.drained = now
}

// nextWake returns the earliest pending wake cycle, or ^uint64(0) when
// none is pending. Stale entries can only make it early, never late.
func (st *schedState) nextWake() uint64 {
	next := ^uint64(0)
	if st.wheelMask != 0 {
		base := st.drained + 1
		next = base + uint64(bits.TrailingZeros64(bits.RotateLeft64(st.wheelMask, -int(base&(wheelSlots-1)))))
	}
	if len(st.wakes) > 0 && st.wakes[0].at < next {
		next = st.wakes[0].at
	}
	return next
}

// rebuild re-derives every readiness structure from the warp list after
// compaction has renumbered its positions.
func (st *schedState) rebuild(ws []*warp) {
	clear(st.active)
	clear(st.ready)
	clear(st.wheel)
	st.wheelMask = 0
	st.wakes = st.wakes[:0]
	for p, w := range ws {
		if w.flags == 0 {
			st.wake(p, w.nextFree)
		}
	}
}
