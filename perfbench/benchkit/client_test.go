package benchkit

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeDaemon answers the three calls Client.Job makes. Job n's status
// carries cycles n; every third event stream closes without its
// terminal event; workload "full" is refused with 429.
func fakeDaemon(t *testing.T) *httptest.Server {
	var next atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if strings.Contains(string(body), `"full"`) {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"%d"}`, next.Add(1))
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "event: queued\ndata: {}\n\n")
		var id int
		fmt.Sscan(r.PathValue("id"), &id)
		if id%3 != 0 {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
		}
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"done","results":[{"cycles":%s,"instructions":7,"state_hash":"0x%s","duration_ms":0.5}]}`,
			r.PathValue("id"), r.PathValue("id"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientPass(t *testing.T) {
	c := NewClient(fakeDaemon(t).URL, 2)
	var runs []Run
	for i := 0; i < 30; i++ {
		runs = append(runs, Run{Bench: fmt.Sprint("B", i), Policy: "Uncompressed"})
	}
	out, wall := c.Pass(context.Background(), runs, 2)
	if wall <= 0 || len(out) != len(runs) {
		t.Fatalf("Pass returned %d results in %v", len(out), wall)
	}
	ids := map[uint64]bool{}
	closedEarly := 0
	for i, jr := range out {
		if jr.Err != nil || jr.Run != runs[i] || jr.Insts != 7 || jr.Hash != fmt.Sprintf("0x%d", jr.Cycles) || jr.Latency < jr.Submit {
			t.Errorf("result %d = %+v", i, jr)
		}
		ids[jr.Cycles] = true
		if jr.NoTerminalEvent {
			closedEarly++
		}
	}
	if len(ids) != len(runs) || closedEarly != len(runs)/3 {
		t.Errorf("%d distinct jobs, %d streams closed early; want %d and %d", len(ids), closedEarly, len(runs), len(runs)/3)
	}
}

func TestClientJobRefused(t *testing.T) {
	c := NewClient(fakeDaemon(t).URL, 1)
	jr := c.Job(context.Background(), Run{Bench: "full", Policy: "LATTE-CC"})
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "429") {
		t.Errorf("a 429 must fail the job, got %v", jr.Err)
	}
}
