package main

import (
	"encoding/json"
	"os"
	"testing"

	"lattecc/perfbench/benchkit"
)

// benchmarkFile is BENCHMARK.json at the root of the checkout.
const benchmarkFile = "../../BENCHMARK.json"

type benchmarkSpec struct {
	Workloads []struct{ Name string }
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestLedgerMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(ledger) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the ledger %d", len(spec.PerLayer), len(ledger))
	}
	for i, l := range ledger {
		p := spec.PerLayer[i]
		if p.Name != l.Name || p.Unit != l.Unit || p.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, ledger has %s/%s/%s", i, p, l.Name, l.Unit, l.Better)
		}
		if l.Moves == "" {
			t.Errorf("%s names no end-to-end metric it should move", l.Name)
		}
	}
	ws := benchkit.Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchkit %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchkit %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
}

// Every cpu_share metric must name a layer the roll-up produces.
func TestLedgerCoversEveryLayerShare(t *testing.T) {
	have := map[string]bool{}
	for _, l := range ledger {
		have[l.Name] = true
	}
	for _, l := range benchkit.Layers {
		if !have[l+".cpu_share"] {
			t.Errorf("ledger lacks %s.cpu_share", l)
		}
	}
}
