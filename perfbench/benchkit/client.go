package benchkit

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Client submits runs to a latteccd-compatible HTTP surface.
type Client struct {
	Base string // e.g. http://127.0.0.1:8437
	HTTP *http.Client
}

// NewClient returns a client for base with connections kept for
// `conns` concurrent callers.
func NewClient(base string, conns int) *Client {
	return &Client{Base: base, HTTP: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * conns},
	}}
}

// JobResult is one run's outcome as the client saw it.
type JobResult struct {
	Run Run
	// Submit is the POST round trip; Latency runs from submit to the
	// completed status in hand.
	Submit, Latency time.Duration
	// DurationMS is the server's own account of the run (duration_ms).
	DurationMS float64
	// NoTerminalEvent reports that the event stream closed without a
	// "done" or "failed" event. latteccd closes the stream once the job
	// is terminal, but it sets the job's state before appending the
	// final event, so a stream can observe the state first and close
	// early; the status read that follows is what decides the outcome.
	NoTerminalEvent bool
	Insts           uint64
	Cycles          uint64
	Hash            string
	Err             error
}

// Job submits one run as its own job, follows its event stream to the
// terminal event, then reads the job's status. Any non-2xx answer (429
// included), a failed job or a malformed status is an error.
func (c *Client) Job(ctx context.Context, r Run) JobResult {
	jr := JobResult{Run: r}
	t0 := time.Now()
	body, err := json.Marshal(map[string]string{"workload": r.Bench, "policy": r.Policy})
	if err != nil {
		jr.Err = err
		return jr
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/runs", body, &sub); err != nil {
		jr.Err = fmt.Errorf("submit: %w", err)
		return jr
	}
	jr.Submit = time.Since(t0)
	terminal, err := c.waitTerminal(ctx, "/v1/runs/"+sub.ID+"/events")
	if err != nil {
		jr.Err = fmt.Errorf("events: %w", err)
		return jr
	}
	jr.NoTerminalEvent = !terminal
	var st struct {
		Status  string `json:"status"`
		Error   string `json:"error"`
		Results []struct {
			Cycles       uint64  `json:"cycles"`
			Instructions uint64  `json:"instructions"`
			StateHash    string  `json:"state_hash"`
			DurationMS   float64 `json:"duration_ms"`
		} `json:"results"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+sub.ID, nil, &st); err != nil {
		jr.Err = fmt.Errorf("status: %w", err)
		return jr
	}
	jr.Latency = time.Since(t0)
	if st.Status != "done" || len(st.Results) != 1 {
		jr.Err = fmt.Errorf("job %s: status %q, %d results, error %q", sub.ID, st.Status, len(st.Results), st.Error)
		return jr
	}
	res := st.Results[0]
	jr.Insts, jr.Cycles, jr.Hash, jr.DurationMS = res.Instructions, res.Cycles, res.StateHash, res.DurationMS
	return jr
}

// Pass submits every run once from `clients` closed-loop clients (each
// sends its next job only when the previous one completed) and returns
// the results in the order of runs, plus the pass's wall time.
func (c *Client) Pass(ctx context.Context, runs []Run, clients int) ([]JobResult, time.Duration) {
	out := make([]JobResult, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = c.Job(ctx, runs[i])
			}
		}()
	}
feed:
	for i := range runs {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < len(runs); j++ {
				out[j] = JobResult{Run: runs[j], Err: ctx.Err()}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return out, time.Since(start)
}

// Scrape reads and parses /metrics.
func (c *Client) Scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return ParseMetrics(resp.Body)
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// waitTerminal reads an SSE stream until a "done" event (true), the
// server closing the stream (false), or a "failed" event (error).
func (c *Client) waitTerminal(ctx context.Context, path string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch strings.TrimSpace(sc.Text()) {
		case "event: done":
			return true, nil
		case "event: failed":
			return true, errors.New("job failed")
		}
	}
	return false, sc.Err()
}
