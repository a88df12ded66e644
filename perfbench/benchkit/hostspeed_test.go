package benchkit

import (
	"testing"
	"time"
)

func TestRefLoopIsOneCycle(t *testing.T) {
	r := NewRefLoop()
	seen := make([]bool, refWords)
	j := uint32(0)
	for i := 0; i < refWords; i++ {
		if seen[j] {
			t.Fatalf("chain returns to word %d after %d steps, want a cycle through all %d words", j, i, refWords)
		}
		seen[j] = true
		j = r.next[j]
	}
	if j != 0 {
		t.Fatalf("after %d steps the chain is at word %d, want 0", refWords, j)
	}
	if d := r.Read(); d <= 0 {
		t.Fatalf("Read() = %v, want > 0", d)
	}
}

func TestAtRef(t *testing.T) {
	// Measured while a pass took twice the nominal time: the host ran at
	// half speed, so the work takes half as long at the reference speed.
	if got := AtRef(3*time.Second, MeanRef([]time.Duration{RefNominal, 3 * RefNominal})); got != 1.5 {
		t.Errorf("AtRef(3s, 2×nominal) = %v s, want 1.5", got)
	}
	if got := AtRef(40*time.Millisecond, RefNominal); got != 0.04 {
		t.Errorf("AtRef(40ms, nominal) = %v s, want 0.04", got)
	}
}
