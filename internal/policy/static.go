// Package policy implements the compression-management policies LATTE-CC
// is compared against in the paper's evaluation:
//
//   - Uncompressed / Static-BDI / Static-SC / Static-BPC (Figures 11-13)
//   - Adaptive-Hit-Count — set sampling on hit counts only (Figure 17)
//   - Adaptive-CMP — Alameldeen-style, decompression-latency aware but
//     latency-tolerance oblivious (Figure 17)
//   - Kernel-OPT — the offline oracle that picks the best static mode per
//     kernel (Figures 11 and 15), driven by the harness
//
// The LATTE-CC controller itself lives in package core.
package policy

import "lattecc/internal/modes"

// Static is a controller that applies one compression mode to every line,
// unconditionally. Static(modes.None) is the baseline uncompressed cache;
// Static(modes.LowLat) is Static-BDI; Static(modes.HighCap) is Static-SC
// (or Static-BPC when the cache's high-capacity codec is BPC).
type Static struct {
	mode modes.Mode
	name string

	// Period bookkeeping for the high-capacity codec: even static SC needs
	// its VFT rebuilt periodically (Section IV-C2 applies the same period
	// structure to SC and LATTE-CC).
	epLen     uint64 // accesses per experimental phase
	epsPerPer uint64 // EPs per period
	accesses  uint64
	needsHC   bool
}

var (
	_ modes.Controller  = (*Static)(nil)
	_ modes.HighCapUser = (*Static)(nil)
)

// NewStatic returns a static controller for the given mode. epLen and
// epsPerPeriod control the high-capacity code-book rebuild cadence; they
// are ignored unless mode is HighCap.
func NewStatic(mode modes.Mode, name string, epLen, epsPerPeriod uint64) *Static {
	return &Static{
		mode:      mode,
		name:      name,
		epLen:     epLen,
		epsPerPer: epsPerPeriod,
		needsHC:   mode == modes.HighCap,
	}
}

// Name implements modes.Controller.
func (s *Static) Name() string { return s.name }

// UsesHighCap implements modes.HighCapUser: only Static-SC/BPC inserts
// high-capacity lines.
func (s *Static) UsesHighCap() bool { return s.needsHC }

// InsertMode implements modes.Controller.
func (s *Static) InsertMode(int) modes.Mode { return s.mode }

// CurrentMode implements modes.Snapshotter.
func (s *Static) CurrentMode() modes.Mode { return s.mode }

// RecordAccess implements modes.Controller. For Static-SC it requests the
// periodic VFT rebuild and the accompanying flush of compressed lines.
func (s *Static) RecordAccess(int, bool, modes.Mode, uint64, uint64) modes.Directive {
	if !s.needsHC {
		return modes.Directive{}
	}
	s.accesses++
	if s.accesses == s.epLen {
		// Section IV-C2: the VFT is built during the first EP of the
		// first period — the first code book exists from then on.
		return modes.Directive{RebuildHighCap: true}
	}
	if s.accesses%(s.epLen*s.epsPerPer) == 0 {
		return modes.Directive{FlushHighCap: true, RebuildHighCap: true}
	}
	return modes.Directive{}
}

// RecordMissLatency implements modes.Controller (unused by Static).
func (s *Static) RecordMissLatency(uint64) {}

// RecordTolerance implements modes.Controller (unused by Static).
func (s *Static) RecordTolerance(float64) {}
