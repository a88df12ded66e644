// Command latteccd serves the LATTE-CC simulation harness as a daemon:
// a long-lived process that keeps one result cache (harness.Suite) per
// machine configuration and accepts simulation jobs over HTTP/JSON.
// Repeated runs of the same (workload, policy, variant, config) are
// served from the resident cache instead of re-simulating, and every
// result carries the same StateHash a direct CLI run would report.
//
// Usage:
//
//	latteccd                          # paper machine on :8437
//	latteccd -tiny -addr :9000        # CI smoke machine
//	latteccd -workers 4 -jobs 8       # 4 concurrent jobs, 8-wide sim pool
//	latteccd -store /var/lattecc      # persist results across restarts
//
// API:
//
//	POST /v1/runs              submit a run or batch; 202 with a job ID
//	GET  /v1/runs/{id}         job status and results
//	GET  /v1/runs/{id}/events  SSE progress stream
//	GET  /metrics              Prometheus text format
//	GET  /healthz, /readyz     probes (readyz answers 503 while draining)
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued and
// in-flight jobs complete (bounded by -drain), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lattecc/internal/resultstore"
	"lattecc/internal/server"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
)

func main() {
	var (
		addr     = flag.String("addr", ":8437", "listen address")
		workers  = flag.Int("workers", 2, "jobs executing concurrently")
		jobs     = flag.Int("jobs", 0, "simulation pool width per job (0 = GOMAXPROCS)")
		smJobs   = flag.Int("smjobs", 0, "worker goroutines ticking SMs inside each simulation (0/1 = serial; results are bit-identical for any value)")
		queue    = flag.Int("queue", 64, "admission queue depth (overflow answers 429)")
		deadline = flag.Duration("deadline", 5*time.Minute, "default per-job deadline")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
		quick    = flag.Bool("quick", false, "use a smaller GPU (2 SMs) for a fast smoke pass")
		tiny     = flag.Bool("tiny", false, "use the CI golden-gate machine (2 SMs, 120k-instruction cap)")
		storeDir = flag.String("store", "", "persistent result-store directory (empty = memory-only)")
		storeMax = flag.Int64("store-max-bytes", 0, "result-store size bound in bytes; least-recently-used entries are evicted (0 = unbounded)")
		traceDir = flag.String("trace-dir", "", "trace-corpus directory: register every <NAME>.lct/<NAME>.json pair as a replay workload")
	)
	flag.Parse()
	if *traceDir != "" {
		// Registered before server.New snapshots the workload list —
		// registry writes are startup-only (no lock below the determinism
		// boundary).
		names, err := tracefile.RegisterCorpus(*traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "latteccd: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "latteccd: trace corpus: %d workload(s) registered\n", len(names))
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "latteccd: -workers must be >= 1, got %d\n", *workers)
		os.Exit(2)
	}
	if *queue < 1 {
		fmt.Fprintf(os.Stderr, "latteccd: -queue must be >= 1, got %d\n", *queue)
		os.Exit(2)
	}
	if *smJobs < 0 {
		fmt.Fprintf(os.Stderr, "latteccd: -smjobs must be >= 0, got %d\n", *smJobs)
		os.Exit(2)
	}

	cfg := sim.DefaultConfig()
	if *quick || *tiny {
		cfg.NumSMs = 2
	}
	if *tiny {
		// Mirror `experiments -tiny` exactly so daemon StateHashes are
		// comparable against the CLI's golden runs.
		cfg.MaxInstructions = 120_000
	}
	cfg.SMJobs = *smJobs

	srvCfg := server.Config{
		BaseConfig:      cfg,
		Workers:         *workers,
		RunJobs:         *jobs,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
	}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir, resultstore.Options{MaxBytes: *storeMax})
		if err != nil {
			fmt.Fprintf(os.Stderr, "latteccd: opening result store: %v\n", err)
			os.Exit(2)
		}
		srvCfg.Store = st
		c := st.Counters()
		fmt.Fprintf(os.Stderr, "latteccd: result store %s (%d entries, %d bytes)\n",
			*storeDir, c.Entries, c.Bytes)
	}
	srv := server.New(srvCfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "latteccd: serving on %s (workers=%d queue=%d)\n", *addr, *workers, *queue)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "latteccd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "latteccd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "latteccd: http shutdown: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "latteccd: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "latteccd: drained, bye")
}
