package benchkit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one benchmark run reports: its metrics, and the
// correctness checks it made counted as operations attempted and
// failed.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Checks counts correctness checks and keeps the first few failures for
// the log.
type Checks struct {
	Attempted, Failed int
	Errors            []string
}

// Check records one operation; ok=false counts it as failed.
func (c *Checks) Check(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		if len(c.Errors) < 20 {
			c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
		}
	}
}

// Result builds the run's result from the checks and metrics.
func (c *Checks) Result(metrics map[string]Metric) Result {
	return Result{Correct: c.Failed == 0, Attempted: c.Attempted, Failed: c.Failed, Metrics: metrics}
}

// Host describes the machine and code a result was measured on, so two
// results from different hosts are never compared silently.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Key is the part of Host that must match for two results to be
// comparable: the same machine and toolchain (the code may differ —
// comparing two commits is the point).
func (h Host) Key() string {
	return fmt.Sprintf("%s|%d|%d|%s", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// DescribeHost collects the host block for the checkout rooted at root.
func DescribeHost(root string) Host {
	h := Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// Only a checkout that is itself a git work tree is asked: git would
	// otherwise search the directories above it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// Record is the results file written beside every run: the result, the
// host it was measured on, and the run's identity.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Host     Host   `json:"host"`
	Result   Result `json:"result"`
	// Notes carries what the metrics alone do not say (sample counts,
	// failures), one line each.
	Notes []string `json:"notes,omitempty"`
}

// Emit writes the record to dir/<workload>-seed<seed>[-trace].json,
// prints the host block and notes to log, and prints the result as the
// last line of out.
func Emit(out, log io.Writer, dir string, rec Record) error {
	hb, err := json.Marshal(rec.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "host %s\n", hb)
	for _, n := range rec.Notes {
		fmt.Fprintf(log, "note %s\n", n)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed)
		if rec.Trace {
			name += "-trace"
		}
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// Compare renders the metric-by-metric ratio of two records (b over a)
// and warns first when they were measured on different hosts.
func Compare(a, b Record) string {
	var buf bytes.Buffer
	if a.Host.Key() != b.Host.Key() {
		fmt.Fprintf(&buf, "WARNING: results come from different hosts:\n  a: %s\n  b: %s\n", a.Host.Key(), b.Host.Key())
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(&buf, "WARNING: different workloads: %s vs %s\n", a.Workload, b.Workload)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Result.Metrics[n]
		mb, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(&buf, "%-32s %14.6g %14s %8s\n", n, ma.Value, "missing", ma.Unit)
			continue
		}
		ratio := "n/a"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.4f", mb.Value/ma.Value)
		}
		fmt.Fprintf(&buf, "%-32s %14.6g %14.6g %8s  b/a=%s\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return buf.String()
}

// ReadRecord loads a results file written by Emit.
func ReadRecord(path string) (Record, error) {
	var r Record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
