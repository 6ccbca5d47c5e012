package experiments

import (
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

// TestHistCodecRoundTrip: histograms exported under different prefixes
// into one trial's values come back exactly, each isolated from the
// others — the property tenancy's per-class export relies on ("latency_"
// even shares its first letters with the bare "lat_" keys). An empty
// histogram survives too, and a missing trial is an error.
func TestHistCodecRoundTrip(t *testing.T) {
	hist := func(vals ...int64) *sim.LatencyHist {
		h := &sim.LatencyHist{}
		for _, v := range vals {
			h.Add(v)
		}
		return h
	}
	want := map[string]*sim.LatencyHist{
		"":          hist(3, 150, 150, 9000, 1_200_000),
		"standard_": hist(7, 42_000, 42_001),
		"latency_":  hist(),
	}
	v := harness.Values{}
	for prefix, h := range want {
		putHist(v, prefix, h)
	}
	r := &harness.Result{Trials: []harness.TrialResult{{Trial: "cell/s0", Values: v}}}
	for prefix, h := range want {
		got, err := getHist(r, "cell/s0", prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Errorf("prefix %q: got %v, want %v", prefix, got, h)
		}
	}

	// Shards merge exactly.
	r.Trials = append(r.Trials, harness.TrialResult{Trial: "cell/s1", Values: v})
	merged, err := mergedHist(r, []string{"cell/s0", "cell/s1"}, "standard_")
	if err != nil {
		t.Fatal(err)
	}
	twice := hist(7, 42_000, 42_001, 7, 42_000, 42_001)
	if !reflect.DeepEqual(merged, twice) {
		t.Errorf("merged shards: got %v, want %v", merged, twice)
	}

	if _, err := getHist(r, "cell/s2", ""); err == nil {
		t.Error("missing trial accepted")
	}
}
