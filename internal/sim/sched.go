package sim

import "math/bits"

// Warp selection works in position space: a warp's position is its index
// in its scheduler's warp list, which is id-ordered (ids grow in launch
// order), so a lower position is always an older warp. Readiness is a
// bitset over positions, one bit per warp, as many 64-bit words as the
// list needs.

// bitSet, bitClear and bitHas address one position of a bitset.
func bitSet(b []uint64, p int)      { b[p>>6] |= 1 << uint(p&63) }
func bitClear(b []uint64, p int)    { b[p>>6] &^= 1 << uint(p&63) }
func bitHas(b []uint64, p int) bool { return b[p>>6]&(1<<uint(p&63)) != 0 }

// popcount returns the number of set positions.
func popcount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// anySet reports whether any position is set.
func anySet(b []uint64) bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// lowestAbove returns the lowest set position strictly greater than p
// (p = -1 searches from the start), or -1 when there is none.
func lowestAbove(b []uint64, p int) int {
	p++
	wi := p >> 6
	if wi >= len(b) {
		return -1
	}
	w := b[wi] &^ (1<<uint(p&63) - 1)
	for {
		if w != 0 {
			return wi<<6 | bits.TrailingZeros64(w)
		}
		wi++
		if wi == len(b) {
			return -1
		}
		w = b[wi]
	}
}

// PickWarp is the warp selection function shared by the SM model and the
// differential oracle. ready is the bitset of warps that can issue this
// cycle; last is the position of the last issued warp when lastLive, and
// otherwise the position just below where that warp stood before it left
// the list (-1 initially). It returns the chosen position, or ok=false
// when no warp is ready.
//
// GTO (greedy-then-oldest) sticks with the last issued warp while it is
// ready, otherwise takes the lowest ready position (the oldest warp). RR
// (loose round-robin) takes the lowest ready position above last,
// wrapping to the lowest ready position.
//
//lint:hotpath
func PickWarp(kind SchedulerKind, ready []uint64, last int, lastLive bool) (int, bool) {
	first := lowestAbove(ready, -1)
	if first < 0 {
		return -1, false
	}
	if kind == SchedRR {
		if p := lowestAbove(ready, last); p >= 0 {
			return p, true
		}
		return first, true
	}
	if lastLive && bitHas(ready, last) {
		return last, true
	}
	return first, true
}

// SchedState is one warp scheduler's issue history and Equation 4
// accumulators. sm.schedule and the differential oracle both drive it, so
// the oracle checks the exact production selection and accounting.
type SchedState struct {
	// last/lastLive locate the last issued warp as PickWarp expects them.
	last     int
	lastLive bool

	// Equation 4 accumulators over the tolerance window.
	ReadySum uint64 // sum over cycles of (ready warps - 1 issuing)
	Issues   uint64 // picks that issued an instruction (the caller counts them)
	Switches uint64 // picks that differ from the last issued warp
}

// NewSchedState starts a scheduler with no issue history.
func NewSchedState() SchedState { return SchedState{last: -1} }

// Select runs one scheduler cycle over the ready bitset: it adds the
// ready warps beyond the one that issues to ReadySum (the tolerance
// probe), picks a position with PickWarp, and counts a switch when the
// pick is not the last issued warp. ok is false when nothing is ready,
// in which case the cycle contributes nothing.
//
//lint:hotpath
func (st *SchedState) Select(kind SchedulerKind, ready []uint64) (pos int, ok bool) {
	n := popcount(ready)
	if n == 0 {
		return -1, false
	}
	st.ReadySum += uint64(n - 1)
	pos, _ = PickWarp(kind, ready, st.last, st.lastLive)
	if !st.lastLive || pos != st.last {
		st.Switches++
		st.last, st.lastLive = pos, true
	}
	return pos, true
}

// Remove tells the scheduler that position pos left its warp list, every
// higher position shifting down by one. Removing the last issued warp
// keeps its place for RR (the position just below) but ends GTO's
// greedy claim.
func (st *SchedState) Remove(pos int) {
	switch {
	case pos < st.last:
		st.last--
	case pos == st.last:
		st.last--
		st.lastLive = false
	}
}

// Last returns the position of the last issued warp and whether that
// warp is still in the list (see PickWarp).
func (st *SchedState) Last() (pos int, live bool) { return st.last, st.lastLive }
