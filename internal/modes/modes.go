// Package modes defines the compression operating modes and the controller
// interface shared by the compressed cache, the LATTE-CC core, and the
// baseline compression-management policies.
//
// LATTE-CC (HPCA 2018) selects among exactly three operating modes at
// runtime: no compression, a low-latency compression algorithm (BDI in the
// paper), and a high-capacity compression algorithm (SC, or BPC in the
// flexibility study). The rest of the system is agnostic to which concrete
// codec backs each mode, so the mode itself is the unit of decision.
package modes

import "fmt"

// Mode identifies one of the three compression operating modes.
type Mode uint8

const (
	// None stores lines uncompressed (the baseline cache behaviour).
	None Mode = iota
	// LowLat stores lines with the low-latency codec (BDI in the paper).
	LowLat
	// HighCap stores lines with the high-capacity codec (SC in the paper,
	// BPC in the LATTE-CC-BDI-BPC variant).
	HighCap

	// NumModes is the number of operating modes.
	NumModes = 3
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case LowLat:
		return "low-latency"
	case HighCap:
		return "high-capacity"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Valid reports whether m is one of the three defined modes.
func (m Mode) Valid() bool { return m < NumModes }

// All lists the three modes in decision-priority order (the order the
// learning phase dedicates sampling sets to them).
func All() [NumModes]Mode { return [NumModes]Mode{None, LowLat, HighCap} }

// Directive is returned by a Controller after it observes an access. It
// lets the controller request structural actions from the cache without the
// cache depending on the controller's internals.
type Directive struct {
	// FlushHighCap asks the cache to invalidate every line held in the
	// high-capacity mode. LATTE-CC issues this when the SC value-frequency
	// table is rebuilt at a period boundary: lines encoded with the old
	// Huffman code book can no longer be decoded (Section IV-C2).
	// Low-latency (BDI) lines decode without any code book and survive.
	FlushHighCap bool
	// RebuildHighCap asks the high-capacity codec to regenerate its code
	// tables from the value-frequency statistics gathered this period.
	RebuildHighCap bool
	// FlushMismatch asks the cache to invalidate, in each listed set,
	// every line whose mode differs from the set's sampling mode.
	// LATTE-CC issues this when its sampling window opens: each dedicated
	// set then holds only lines of the mode it is labelled with, so the
	// learning phase measures that mode's capacity instead of the
	// incumbent's leftovers. Lines already in the right mode survive,
	// keeping the flush cheap for the incumbent's own sets.
	FlushMismatch []SetMode
}

// SetMode pairs a set index with a mode for FlushMismatch. When
// KeepUncompressed is set, uncompressed lines survive regardless of Mode:
// they carry no decompression penalty, so evicting them would only cost
// misses (the end-of-sampling cleanup uses this form).
type SetMode struct {
	Set              int
	Mode             Mode
	KeepUncompressed bool
}

// Controller decides, per cache set and point in time, which compression
// mode newly inserted lines should use. Implementations include the
// LATTE-CC adaptive controller, the static policies, and the adaptive
// baselines (Adaptive-Hit-Count, Adaptive-CMP).
//
// The compressed cache invokes the controller in three places:
//
//   - InsertMode when a fill must pick a compression mode,
//   - RecordAccess on every L1 access (the unit that advances LATTE-CC's
//     experimental phases),
//   - RecordMissLatency / RecordTolerance as the measurement feeds.
type Controller interface {
	// Name identifies the policy in reports ("LATTE-CC", "Static-BDI", ...).
	Name() string

	// InsertMode returns the compression mode to apply to a line being
	// inserted into the given set. During LATTE-CC's learning phase the
	// dedicated sampling sets each force their own mode; follower sets use
	// the current winning prediction.
	InsertMode(set int) Mode

	// RecordAccess informs the controller of an L1 data cache access.
	// hit reports whether the access hit; lineMode is the mode the hit
	// line was stored with (undefined on misses); extraLat is the
	// decompression penalty (latency + queue wait, Equation 3) the access
	// experienced; set is the accessed set; now is the current SM cycle.
	// The returned directive may request a flush of compressed lines
	// (SC code book rebuild).
	RecordAccess(set int, hit bool, lineMode Mode, extraLat uint64, now uint64) Directive

	// RecordMissLatency reports the observed service latency, in cycles,
	// of a completed L1 miss. LATTE-CC uses the running average as the
	// miss_latency term of AMAT_GPU.
	RecordMissLatency(lat uint64)

	// RecordTolerance reports the current latency-tolerance estimate of
	// the SM pipeline, in cycles (Equation 4 of the paper).
	RecordTolerance(tol float64)
}

// Snapshotter is implemented by controllers that expose their current mode
// decision for instrumentation (Figure 15's agreement analysis).
type Snapshotter interface {
	// CurrentMode returns the mode follower sets are using right now.
	CurrentMode() Mode
}

// HighCapUser is an optional Controller extension for controllers that
// know, once built, whether they can ever insert a HighCap line. The
// cache asks once: a controller that answers false never gets its
// high-capacity code book trained, because no rebuild will ever use it.
// Controllers that do not implement it are assumed to use HighCap.
type HighCapUser interface {
	UsesHighCap() bool
}
