package benchkit

import (
	"encoding/json"
	"io"
	"time"
)

// Span is one timed interval around a call into a layer. Spans of one
// simulated run share Run; Parent is the index of the enclosing span in
// the recorder (-1 for a root).
//
// A span timed once has Calls == 1 and Busy == End-Start. A hot call
// (one per simulated instruction or access) is recorded as one
// aggregate span per run instead: Start/End bound the first and last
// call, Calls counts them and Busy sums their durations.
type Span struct {
	Name   string        `json:"name"`
	Run    int           `json:"run"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Calls  uint64        `json:"calls"`
	Busy   time.Duration `json:"busy_ns"`
}

// Spans keeps every span in memory, relative to one epoch; they are
// written out once the run ends. Not safe for concurrent use: the
// traced run is serial.
type Spans struct {
	epoch time.Time
	All   []Span
}

// NewSpans starts a recorder whose offsets count from now.
func NewSpans() *Spans { return &Spans{epoch: time.Now()} }

// Begin opens a span and returns its index.
func (s *Spans) Begin(name string, run, parent int) int {
	now := time.Since(s.epoch)
	s.All = append(s.All, Span{Name: name, Run: run, Parent: parent, Start: now, End: now})
	return len(s.All) - 1
}

// End closes span i.
func (s *Spans) End(i int) {
	sp := &s.All[i]
	sp.End = time.Since(s.epoch)
	sp.Calls = 1
	sp.Busy = sp.End - sp.Start
}

// Add appends an already-measured span (an aggregate of hot calls, or
// an interval timed elsewhere) and returns its index.
func (s *Spans) Add(sp Span) int {
	s.All = append(s.All, sp)
	return len(s.All) - 1
}

// SelfTime is span i's busy time minus the busy time of its direct
// children: the time spent in the layer itself rather than in the
// layers it called. It never goes below zero (timer granularity can
// make children sum past a short parent).
func (s *Spans) SelfTime(i int) time.Duration {
	self := s.All[i].Busy
	for _, c := range s.All {
		if c.Parent == i {
			self -= c.Busy
		}
	}
	if self < 0 {
		return 0
	}
	return self
}

// Total sums Busy over the spans named name, and counts their calls.
func (s *Spans) Total(name string) (busy time.Duration, calls uint64) {
	for _, sp := range s.All {
		if sp.Name == name {
			busy += sp.Busy
			calls += sp.Calls
		}
	}
	return busy, calls
}

// WriteJSONLines writes one span per line.
func (s *Spans) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range s.All {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}
