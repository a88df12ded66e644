package benchkit

import (
	"math/rand"
	"time"
)

// Host speed on a shared virtual machine drifts by tens of percent
// within minutes, as other tenants load the same cores, and the drift
// moves every wall-clock figure of a run together. So the benchmark
// times a fixed reference loop beside the work it measures, and reports
// host time at the reference speed: a duration d measured while one
// reference pass took r is reported as d × RefNominal / r. A change that
// makes lattecc slower or faster moves that figure fully; a host that
// slows everything down moves the reference with it and cancels out.
// The drift that matters is slow, so r is the mean of every reading
// taken during a process or a daemon round (10 to 30 s): a reading
// taken between two jobs catches the host's speed over its own 40 ms,
// which jitters far more than the speed averaged over a whole job.
//
// The reference is a chain of dependent loads over a 64 KiB random
// cycle. It stays in the core's own caches and allocates nothing, so it
// measures the core's speed as the simulator sees it (clock and
// contention from whatever shares the core) and nothing of lattecc.
const (
	refWords = 16 << 10 // uint32 words: 64 KiB
	refSteps = 400_000  // loads per pass
	// refPasses is how many passes one reading averages, about 40 ms
	// of them: the loop's speed jitters by ±20% over tens of
	// milliseconds.
	refPasses = 32
	// RefNominal is the time one reference pass is scaled to. A pass
	// took 1.1 to 1.7 ms on a 2-vCPU Xeon VM, so there scaled figures
	// read 10-40% below host time.
	RefNominal = time.Millisecond
)

// RefLoop is the host-speed reference. It is not safe for concurrent use.
type RefLoop struct {
	next []uint32
	at   uint32
}

// NewRefLoop builds the reference cycle and runs it once so its pages
// and cache lines are in place before the first reading.
func NewRefLoop() *RefLoop {
	perm := rand.New(rand.NewSource(1)).Perm(refWords)
	r := &RefLoop{next: make([]uint32, refWords)}
	for i, p := range perm {
		r.next[p] = uint32(perm[(i+1)%refWords])
	}
	r.pass()
	return r
}

func (r *RefLoop) pass() time.Duration {
	t := time.Now()
	j := r.at
	for i := 0; i < refSteps; i++ {
		j = r.next[j]
	}
	r.at = j // keeps the chain live
	return time.Since(t)
}

// Read returns one reading: the mean time of a pass over refPasses
// passes.
func (r *RefLoop) Read() time.Duration {
	var total time.Duration
	for i := 0; i < refPasses; i++ {
		total += r.pass()
	}
	return total / refPasses
}

// AtRef converts a duration d measured on this host to seconds at the
// reference speed, given the mean reference reading r taken around it.
func AtRef(d, r time.Duration) float64 {
	return d.Seconds() * float64(RefNominal) / float64(r)
}

// MeanRef is the mean of reference readings.
func MeanRef(rs []time.Duration) time.Duration {
	var sum time.Duration
	for _, r := range rs {
		sum += r
	}
	return sum / time.Duration(len(rs))
}
