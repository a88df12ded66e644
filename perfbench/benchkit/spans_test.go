package benchkit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	s := NewSpans()
	ms := time.Millisecond
	root := s.Add(Span{Name: "sim", Parent: -1, Start: 0, End: 100 * ms, Calls: 1, Busy: 100 * ms})
	s.Add(Span{Name: "workload.next", Parent: root, Start: 0, End: 100 * ms, Calls: 1000, Busy: 30 * ms})
	child := s.Add(Span{Name: "core.record_access", Parent: root, Start: 0, End: 100 * ms, Calls: 10, Busy: 20 * ms})
	// A grandchild counts against its parent, not the root.
	s.Add(Span{Name: "inner", Parent: child, Start: 0, End: 5 * ms, Calls: 1, Busy: 5 * ms})
	if got := s.SelfTime(root); got != 50*ms {
		t.Errorf("root self time = %v, want 50ms", got)
	}
	if got := s.SelfTime(child); got != 15*ms {
		t.Errorf("child self time = %v, want 15ms", got)
	}
	// Children summing past the parent clamp to zero.
	over := s.Add(Span{Name: "short", Parent: -1, Busy: ms})
	s.Add(Span{Name: "long", Parent: over, Busy: 2 * ms})
	if got := s.SelfTime(over); got != 0 {
		t.Errorf("over-covered self time = %v, want 0", got)
	}
	if busy, calls := s.Total("workload.next"); busy != 30*ms || calls != 1000 {
		t.Errorf("Total = %v, %d", busy, calls)
	}
}

func TestSpansBeginEndAndWrite(t *testing.T) {
	s := NewSpans()
	i := s.Begin("harness.run", 3, -1)
	time.Sleep(time.Millisecond)
	s.End(i)
	sp := s.All[i]
	if sp.Calls != 1 || sp.Busy <= 0 || sp.Busy != sp.End-sp.Start || sp.Run != 3 {
		t.Errorf("closed span = %+v", sp)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &back); err != nil || back != sp {
		t.Errorf("round trip = %+v, %v; want %+v", back, err, sp)
	}
}
