package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"lattecc/perfbench/benchkit"
)

const (
	// outstanding is the closed-loop client count: each keeps one job in
	// flight and submits its next only when the previous completes.
	outstanding = 2
	// warmPasses is how many warm restarts follow each cold pass. One
	// warm pass takes about 0.1 s and its median latency swings by ±30%
	// from pass to pass on a shared 2-vCPU host, so several are pooled
	// over the rounds; more would leave no time for a second or third
	// cold pass.
	warmPasses = 6
	// coldChunk is how many jobs a cold pass submits between two
	// host-speed reference readings. The clients drain at the end of a
	// chunk, so the reading runs with the daemon idle.
	coldChunk = 28
	// freshSeries is the daemon's count of simulations actually run.
	freshSeries = "latteccd_simulations_fresh_total"
)

// daemonProc is one running latteccd.
type daemonProc struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // exec to first 200 from /readyz
	ref   time.Duration // reference reading taken once ready, daemon idle
	log   *os.File
	api   *benchkit.Client
	// waitDone is closed once cmd.Wait has returned.
	waitDone chan struct{}
}

// startDaemon launches latteccd -tiny -workers 2 over store and waits
// for /readyz.
func (b *bench) startDaemon(ctx context.Context, bin, store string) (*daemonProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ { // a port grabbed between probe and bind is retried
		d, err := b.tryStartDaemon(ctx, bin, store)
		if err == nil {
			d.ref = b.ref.Read()
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (b *bench) tryStartDaemon(ctx context.Context, bin, store string) (*daemonProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.CreateTemp(".bench_build/run", "latteccd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, "-tiny", "-workers", "2", "-store", store, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemonProc{cmd: cmd, base: "http://" + addr, log: logf, api: benchkit.NewClient("http://"+addr, outstanding)}
	exited := make(chan struct{})
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // exit status is read from cmd.ProcessState in stop
		close(exited)
	}()
	for {
		resp, err := d.api.HTTP.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				d.waitDone = exited
				return d, nil
			}
		}
		select {
		case <-exited:
			logf.Close()
			return nil, fmt.Errorf("latteccd exited before ready (log %s)", logf.Name())
		case <-ctx.Done():
			<-exited
			logf.Close()
			return nil, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain, and returns the process's
// peak RSS in MB. A daemon that does not exit within 30 s is killed and
// reported as an error.
func (d *daemonProc) stop() (float64, error) {
	defer d.log.Close()
	// A connection the client dialed but never used is "new" to the
	// server, and its graceful shutdown waits 5 s before closing one.
	d.api.HTTP.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.waitDone:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waitDone
		return 0, errors.New("latteccd did not drain within 30s")
	}
	ps := d.cmd.ProcessState
	var rss float64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if !ps.Success() {
		return rss, fmt.Errorf("latteccd exit: %v (log %s)", ps, d.log.Name())
	}
	return rss, nil
}

// daemonSamples accumulates one run's daemon measurements.
type daemonSamples struct {
	coldReady, warmReady, rates, rawRates, rss []float64
	refs                                       []float64 // reference readings, ms
	// cold holds one group of job latencies (ms) per cold pass, warm one
	// per warm pass: percentiles are taken per pass, then their
	// interquartile mean.
	cold, warm [][]float64
	cycles     map[benchkit.Run]uint64
}

// daemon runs the daemon-fig11 workload: cold-start probes, then rounds
// of one cold pass (empty store) followed by warm restarts over the same
// store, for as many rounds as fit in the time budget.
func (b *bench) daemon(ctx context.Context, bin string) (map[string]benchkit.Metric, error) {
	runDir := ".bench_build/run"
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	b.ref = benchkit.NewRefLoop()
	ds := &daemonSamples{cycles: map[benchkit.Run]uint64{}}
	for i := 0; i < setupProbes; i++ {
		store, err := os.MkdirTemp(runDir, "store-*")
		if err != nil {
			return nil, err
		}
		d, err := b.startDaemon(ctx, bin, store)
		if err != nil {
			return nil, err
		}
		ds.coldReady = append(ds.coldReady, benchkit.AtRef(d.ready, d.ref))
		_, err = d.stop()
		b.checks.Check(err == nil, "cold probe stop: %v", err)
		os.RemoveAll(store)
	}

	start := time.Now()
	for round := 0; round == 0 || b.fits(start, round); round++ {
		store, err := os.MkdirTemp(runDir, "store-*")
		if err != nil {
			return nil, err
		}
		err = b.daemonRound(ctx, bin, store, round, ds)
		os.RemoveAll(store)
		if err != nil {
			return nil, err
		}
	}
	speedup := benchkit.Speedup(ds.cycles, b.w.Base, b.w.Test)
	b.checks.Check(speedup > 0, "sim_speedup = %v", speedup)
	m := map[string]benchkit.Metric{
		"setup_s":         {Value: benchkit.Median(ds.coldReady) + benchkit.Median(ds.warmReady), Unit: "s"},
		"sim_minst_per_s": {Value: benchkit.Median(ds.rates), Unit: "Minst/s"},
		"peak_rss_mb":     {Value: benchkit.Median(ds.rss), Unit: "MB"},
		"sim_speedup":     {Value: speedup, Unit: "x"},
	}
	b.percentiles(m, "job", ds.cold, true)
	b.percentiles(m, "warm_job", ds.warm, true)
	b.notef("%d event stream(s) closed before their terminal event (status read decided)", b.noTerminal)
	b.notef("%d cold pass(es), %d warm passes, %d cold and %d warm ready samples", len(ds.cold), len(ds.warm), len(ds.coldReady), len(ds.warmReady))
	b.notef("host speed: reference pass median %.4f ms over %d readings (scaled to %v); sim_minst_per_s as measured %.4g",
		benchkit.Median(ds.refs), len(ds.refs), benchkit.RefNominal, benchkit.Median(ds.rawRates))
	return m, nil
}

func (b *bench) daemonRound(ctx context.Context, bin, store string, round int, ds *daemonSamples) error {
	// Each time is scaled by reference readings taken across it, with
	// the daemon idle: the cold pass (about 7 s) by the mean of the
	// readings once the daemon is ready and after each chunk of the
	// pass; a warm pass (about 0.1 s, close to a reading's own length) by
	// the readings once its daemon is ready and after the pass.
	d, err := b.startDaemon(ctx, bin, store)
	if err != nil {
		return err
	}
	coldReads := []time.Duration{d.ref}
	var cold []benchkit.JobResult
	var wall time.Duration
	order := benchkit.ColdOrder(b.w.Runs, b.seed*1000+int64(round))
	for lo := 0; lo < len(order); lo += coldChunk {
		res, w := d.api.Pass(ctx, order[lo:min(lo+coldChunk, len(order))], outstanding)
		coldReads = append(coldReads, b.ref.Read())
		cold = append(cold, res...)
		wall += w
	}
	hashes := map[benchkit.Run]string{}
	var insts uint64
	var coldLat []time.Duration
	for _, jr := range cold {
		b.checks.Check(jr.Err == nil, "cold %s/%s: %v", jr.Run.Bench, jr.Run.Policy, jr.Err)
		if jr.Err != nil {
			continue
		}
		b.noTerminal += boolInt(jr.NoTerminalEvent)
		hashes[jr.Run] = jr.Hash
		ds.cycles[jr.Run] = jr.Cycles
		insts += jr.Insts
		coldLat = append(coldLat, jr.Latency)
	}
	coldRef := benchkit.MeanRef(coldReads)
	ds.coldReady = append(ds.coldReady, benchkit.AtRef(d.ready, coldRef))
	ds.cold = append(ds.cold, millis(coldLat, coldRef))
	ds.rates = append(ds.rates, float64(insts)/benchkit.AtRef(wall, coldRef)/1e6)
	ds.rawRates = append(ds.rawRates, float64(insts)/wall.Seconds()/1e6)
	for _, r := range coldReads {
		ds.refs = append(ds.refs, float64(r)/1e6)
	}
	m, err := d.api.Scrape(ctx)
	b.checks.Check(err == nil && m[freshSeries] > 0, "cold pass: %s = %v (scrape error %v)", freshSeries, m[freshSeries], err)
	mb, err := d.stop()
	b.checks.Check(err == nil, "cold stop: %v", err)
	ds.rss = append(ds.rss, mb)

	for wp := 0; wp < warmPasses; wp++ {
		d, err := b.startDaemon(ctx, bin, store)
		if err != nil {
			return err
		}
		warm, _ := d.api.Pass(ctx, benchkit.Shuffled(b.w.Runs, b.seed*1000+500+int64(round*warmPasses+wp)), outstanding)
		reads := []time.Duration{d.ref, b.ref.Read()}
		ds.refs = append(ds.refs, float64(reads[0])/1e6, float64(reads[1])/1e6)
		ds.warmReady = append(ds.warmReady, benchkit.AtRef(d.ready, d.ref))
		var lat []time.Duration
		for _, jr := range warm {
			b.checks.Check(jr.Err == nil && jr.Hash == hashes[jr.Run],
				"warm %s/%s: hash %s, cold %s, err %v", jr.Run.Bench, jr.Run.Policy, jr.Hash, hashes[jr.Run], jr.Err)
			if jr.Err == nil {
				lat = append(lat, jr.Latency)
				b.noTerminal += boolInt(jr.NoTerminalEvent)
			}
		}
		ds.warm = append(ds.warm, millis(lat, benchkit.MeanRef(reads)))
		m, err := d.api.Scrape(ctx)
		b.checks.Check(err == nil && m[freshSeries] == 0, "warm pass: %s = %v, want 0 (scrape error %v)", freshSeries, m[freshSeries], err)
		_, err = d.stop()
		b.checks.Check(err == nil, "warm stop: %v", err)
	}
	return nil
}

// millis converts durations to milliseconds at the reference speed,
// given the mean reference reading ref taken across them.
func millis(ts []time.Duration, ref time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = benchkit.AtRef(t, ref) * 1e3
	}
	return out
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
