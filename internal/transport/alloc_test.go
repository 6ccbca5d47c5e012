package transport

import "testing"

// maxFillAllocs is the heap-allocation ceiling for one steady-state
// remote line fill: the fill's completion and pending record, the
// request and response messages and packets, and the closures that
// schedule each CRMA logic crossing and fabric hop. No per-fill
// statistic may add to it — the packet path keeps typed counters and
// builds no strings.
const maxFillAllocs = 21

// TestCRMARemoteFillAllocCeiling drives 64 B fills across a two-node
// pair, one at a time to completion, and fails if a steady-state fill
// allocates more than maxFillAllocs heap objects.
func TestCRMARemoteFillAllocCeiling(t *testing.T) {
	r := newRig(t)
	if _, err := r.a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	r.b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0x4000_0000)
	fill := func() {
		r.a.CRMA.FillAsync(0x1_0000_0040, 64)
		r.eng.Run()
	}
	for i := 0; i < 1000; i++ { // warm up maps, histograms and the timing wheel
		fill()
	}
	allocs := testing.AllocsPerRun(2000, fill)
	if allocs > maxFillAllocs {
		t.Fatalf("steady-state remote fill allocates %.1f objects, want <= %d", allocs, maxFillAllocs)
	}
	t.Logf("%.1f allocs per remote fill", allocs)
	if got := r.a.CRMA.Stats.Fills; got != 1000+2001 {
		t.Fatalf("fills = %d, want %d", got, 1000+2001)
	}
}
