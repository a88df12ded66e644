package benchkit

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseMetrics reads a Prometheus text-format scrape into a map from
// series (metric name plus its label set exactly as written, e.g.
// `latteccd_jobs_rejected_total{reason="queue_full"}`) to value.
// Comment and blank lines are skipped; a malformed sample line is an
// error, so a scrape that changed shape is noticed.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the series; label values may hold spaces,
		// so split after the closing brace when there is one.
		series, rest := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			series, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 { // value [timestamp]
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}
