package benchkit

import (
	"strings"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	scrape := `# HELP latteccd_simulations_fresh_total Fresh simulations.
# TYPE latteccd_simulations_fresh_total counter
latteccd_simulations_fresh_total 140
latteccd_jobs_rejected_total{reason="queue_full"} 0
latteccd_run_seconds_bucket{workload="SS",le="0.5"} 3
latteccd_run_seconds_sum{workload="a b"} 1.25e-3 1700000000

`
	m, err := ParseMetrics(strings.NewReader(scrape))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"latteccd_simulations_fresh_total":                    140,
		`latteccd_jobs_rejected_total{reason="queue_full"}`:   0,
		`latteccd_run_seconds_bucket{workload="SS",le="0.5"}`: 3,
		`latteccd_run_seconds_sum{workload="a b"}`:            1.25e-3,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if len(m) != 4 {
		t.Errorf("parsed %d series, want 4: %v", len(m), m)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"name_only", "x notanumber", "x 1 2 3"} {
		if _, err := ParseMetrics(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseMetrics(%q) succeeded, want an error", bad)
		}
	}
}
