package main

import (
	"os"
	"testing"
)

// The fixture is a CPU profile of a traced lease-churn run, reduced to
// samples, locations and function names (file names and addresses
// removed). The expected figures were computed independently from
// `go tool pprof -raw` output of the same file.
const fixture = "testdata/lease-churn.cpu.pb.gz"

func TestProfileFixture(t *testing.T) {
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := readProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 398 {
		t.Errorf("%d samples, want 398", len(samples))
	}
	s := splitByLayer(samples)
	const ms = int64(1e6)
	if s.total != 5050*ms {
		t.Errorf("total %d ns, want %d", s.total, 5050*ms)
	}
	wantSelf := map[string]int64{
		"sim": 2570 * ms, "runtime": 1100 * ms, "fabric": 820 * ms, "transport": 280 * ms,
		"monitor": 130 * ms, "serving": 70 * ms, "memsys": 50 * ms, "core": 20 * ms, "bench": 10 * ms,
	}
	var sum int64
	for l, v := range s.self {
		sum += v
		if v != wantSelf[l] {
			t.Errorf("self[%s] = %d ms, want %d", l, v/ms, wantSelf[l]/ms)
		}
	}
	if len(s.self) != len(wantSelf) {
		t.Errorf("layers %v, want %v", s.self, wantSelf)
	}
	if sum != s.total {
		t.Errorf("layer self times sum to %d, profile total %d", sum, s.total)
	}
	wantUnder := map[string]int64{"sim.switch": 2330 * ms, "monitor.place": 320 * ms, "fabric.topo": 460 * ms}
	for b, want := range wantUnder {
		if s.under[b] != want {
			t.Errorf("under[%s] = %d ms, want %d", b, s.under[b]/ms, want/ms)
		}
	}
	if s.sched != 870*ms {
		t.Errorf("sched %d ms, want 870", s.sched/ms)
	}
}

// TestSplitAttribution pins the attribution rules on hand-made stacks
// (leaf first).
func TestSplitAttribution(t *testing.T) {
	const (
		adjacency = layerPrefix + "fabric.Topology.adjacency"
		donors    = layerPrefix + "monitor.(*Monitor).donorCandidates"
		park      = layerPrefix + "sim.(*Proc).park"
	)
	samples := []stackSample{
		// Allocation inside a BFS under placement: the innermost program
		// frame is fabric's, and both boundaries see it.
		{1, []string{"runtime.mallocgc", adjacency, layerPrefix + "fabric.Topology.HopCount", donors, layerPrefix + "monitor.(*Monitor).grantFrom"}},
		// A channel handoff under park: sim's, and a process switch.
		{2, []string{"runtime.selectgo", park, layerPrefix + "sim.(*Proc).Sleep", layerPrefix + "workloads.(*TierDB).Query"}},
		// Scheduler stack on the system stack: runtime's, counted as
		// scheduling and as process switching.
		{4, []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		// The benchmark's own code.
		{8, []string{"runtime.memmove", "main.digest", "main.(*bench).check"}},
		// A GC worker: runtime's, not scheduling.
		{16, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
	}
	s := splitByLayer(samples)
	want := map[string]int64{"fabric": 1, "sim": 2, "runtime": 20, "bench": 8}
	for l, v := range want {
		if s.self[l] != v {
			t.Errorf("self[%s] = %d, want %d", l, s.self[l], v)
		}
	}
	if s.total != 31 || s.sched != 4 {
		t.Errorf("total %d sched %d, want 31 and 4", s.total, s.sched)
	}
	for b, v := range map[string]int64{"monitor.place": 1, "fabric.topo": 1, "sim.switch": 6} {
		if s.under[b] != v {
			t.Errorf("under[%s] = %d, want %d", b, s.under[b], v)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		layerPrefix + "sim.(*Proc).park":        "sim",
		layerPrefix + "serving.runTier.func1.2": "serving",
		"runtime.selectgo":                      "",
		"main.digest":                           "",
		"repro/internalx.F":                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
