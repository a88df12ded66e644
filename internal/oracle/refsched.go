package oracle

import "lattecc/internal/sim"

// WarpCandidate is one warp as the reference scheduler sees it: its id
// and whether it can issue this cycle.
type WarpCandidate struct {
	ID    int
	Ready bool
}

// RefPickWarp re-derives one warp-scheduler pick from the policy
// specification, by explicit searches over the candidate ids rather than
// internal/sim's bitset walk over warp positions:
//
//   - GTO: issue the last issued warp if it is ready; otherwise issue the
//     oldest ready warp (minimum id — warp ids are assigned in launch
//     order).
//   - RR: issue the ready warp with the smallest id strictly greater than
//     the last issued warp's; if none exists, wrap to the oldest ready
//     warp.
//
// It returns the chosen warp id (not a slice index) so it is meaningful
// regardless of candidate ordering. Candidates must have unique ids; the
// SM's positions are in age order, which is where the optimized
// lowest-position shortcut gets its correctness — the oracle does not
// rely on it.
func RefPickWarp(kind sim.SchedulerKind, lastWarp int, cands []WarpCandidate) (int, bool) {
	minReady := -1
	minAfter := -1
	lastReady := false
	for _, c := range cands {
		if !c.Ready {
			continue
		}
		if c.ID == lastWarp {
			lastReady = true
		}
		if minReady < 0 || c.ID < minReady {
			minReady = c.ID
		}
		if c.ID > lastWarp && (minAfter < 0 || c.ID < minAfter) {
			minAfter = c.ID
		}
	}
	if minReady < 0 {
		return -1, false
	}
	if kind == sim.SchedRR {
		if minAfter >= 0 {
			return minAfter, true
		}
		return minReady, true
	}
	if lastReady {
		return lastWarp, true
	}
	return minReady, true
}

// RefScheduler single-steps one warp scheduler, mirroring the per-cycle
// accounting of the SM's schedState (lastWarp, Equation 4 accumulators)
// with every pick re-derived by RefPickWarp.
type RefScheduler struct {
	Kind     sim.SchedulerKind
	LastWarp int

	ReadySum uint64
	Issues   uint64
	Switches uint64
}

// NewRefScheduler starts a scheduler with no issue history.
func NewRefScheduler(kind sim.SchedulerKind) *RefScheduler {
	return &RefScheduler{Kind: kind, LastWarp: -1}
}

// Step consumes one cycle's candidate list and returns the issued warp id
// (ok=false when the scheduler stalls). The differential driver assumes
// every pick issues successfully; issue-port conflicts are SM pipeline
// behaviour, not scheduler policy.
func (r *RefScheduler) Step(cands []WarpCandidate) (int, bool) {
	ready := 0
	for _, c := range cands {
		if c.Ready {
			ready++
		}
	}
	if ready > 0 {
		r.ReadySum += uint64(ready - 1)
	}
	id, ok := RefPickWarp(r.Kind, r.LastWarp, cands)
	if !ok {
		return -1, false
	}
	if id != r.LastWarp {
		r.Switches++
		r.LastWarp = id
	}
	r.Issues++
	return id, true
}
