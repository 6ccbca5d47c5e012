package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite reference.json from a seed-0 pass of every workload")

// runTrial runs one trial outside the harness and returns its values.
func runTrial(t *testing.T, tr trialSpec, seed uint64) harness.Values {
	t.Helper()
	v, err := tr.run(trialSeed(tr.shard, seed), &trialRecord{})
	if err != nil {
		t.Fatalf("%s seed %d: %v", tr.id, seed, err)
	}
	return v
}

// TestReference checks every trial's simulated values at seed 0 against
// reference.json (or rewrites it with -update).
func TestReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	got := map[string]map[string]string{}
	for _, w := range workloads {
		b := &bench{w: w, first: map[string]string{}} // no ref: collect, don't compare
		b.pass()
		if b.failed != 0 {
			t.Fatalf("%s: %v", w.name, b.failures)
		}
		got[w.name] = b.first
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for name, trials := range got {
		for id, d := range trials {
			if want[name][id] != d {
				t.Errorf("%s %s: digest %s, reference %q", name, id, d, want[name][id])
			}
		}
		if len(want[name]) != len(trials) {
			t.Errorf("%s: reference has %d trials, workload %d", name, len(want[name]), len(trials))
		}
	}
}

// TestSeedReachesScenarios runs each workload's first trial twice at one
// seed and once at another: the same seed must give the same simulated
// values and a different seed different ones, so the benchmark seed
// reaches the scenarios' generators.
func TestSeedReachesScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenario trials")
	}
	for _, w := range workloads {
		tr := w.trials[0]
		a, b, c := digest(runTrial(t, tr, 0)), digest(runTrial(t, tr, 0)), digest(runTrial(t, tr, 1))
		if a != b {
			t.Errorf("%s %s: seed 0 gave digests %s and %s", w.name, tr.id, a, b)
		}
		if a == c {
			t.Errorf("%s %s: seeds 0 and 1 gave the same digest %s", w.name, tr.id, a)
		}
	}
}

// TestBaselineCells proves the benchmark drives the gated configs: its
// tier-telemetry trials at seed 0 are migrate-smoke's telemetry cells,
// and their simulated values must equal BENCH_BASELINE.json exactly.
func TestBaselineCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tier-telemetry trials")
	}
	base, err := harness.LoadReport("../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("tier-telemetry")
	for _, tr := range w.trials {
		var want harness.Values
		for _, bt := range base.Trials {
			if bt.Spec == "migrate-smoke" && bt.Trial == tr.id && bt.Seed == trialSeed(tr.shard, 0) {
				want = bt.Values
			}
		}
		if want == nil {
			t.Fatalf("%s: not in BENCH_BASELINE.json's migrate-smoke", tr.id)
		}
		got := runTrial(t, tr, 0)
		if len(got) != len(want) {
			t.Errorf("%s: %d values, baseline %d", tr.id, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s %s: got %v, baseline %v", tr.id, k, got[k], v)
			}
		}
	}
}

// TestOutputContract runs the cheapest workload untraced and traced and
// checks that the last output line carries exactly the metrics
// BENCHMARK.json declares.
func TestOutputContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the lease-churn workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, declared := range map[string][]struct{ Name, Unit string }{
		"0": spec.EndToEnd, "1": spec.PerLayer,
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "lease-churn", "--seed", "2", "--seconds", "0.01",
			"--trace", trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct %v, %d of %d failed: %s", trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name)
			if res.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("trace %s: %s unit %q, declared %q", trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
			}
		}
		for k := range res.Metrics {
			got = append(got, k)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) {
			t.Errorf("trace %s: metrics %v, declared %v", trace, got, want)
		}
	}
}
