package tenancy

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestClassStringsStable pins the wire names: dashboards, SSE consumers,
// and the obs metric labels all grep for these exact strings.
func TestClassStringsStable(t *testing.T) {
	want := map[Class]string{
		ClassNone:   "none",
		Preemptible: "preemptible",
		Standard:    "standard",
		Latency:     "latency",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		if string(b) != `"`+s+`"` {
			t.Errorf("marshal %v = %s, want %q", c, b, s)
		}
		var back Class
		if err := json.Unmarshal(b, &back); err != nil || back != c {
			t.Errorf("round-trip %v: got %v err %v", c, back, err)
		}
	}
	var c Class
	if err := json.Unmarshal([]byte(`"platinum"`), &c); err == nil {
		t.Error("unknown class name unmarshalled without error")
	}
	if _, err := json.Marshal(Class(99)); err == nil {
		t.Error("unknown class value marshalled without error")
	}
}

// TestClassOrder pins the priority lattice: higher class = higher value,
// and Classes() iterates high to low.
func TestClassOrder(t *testing.T) {
	if !(Latency > Standard && Standard > Preemptible && Preemptible > ClassNone) {
		t.Fatalf("class lattice broken: latency=%d standard=%d preemptible=%d none=%d",
			Latency, Standard, Preemptible, ClassNone)
	}
	if Classes() != [3]Class{Latency, Standard, Preemptible} {
		t.Fatalf("Classes() = %v, not high-to-low", Classes())
	}
}

// TestDecide is the policy table: one row per (class, pressure) cell of
// interest, against a 192-unit pool under the Default() config.
func TestDecide(t *testing.T) {
	cfg := Default()
	const cap = 192 << 20 // 24 leases of 8 MiB
	const lease = 8 << 20
	cases := []struct {
		name    string
		class   Class
		size    uint64
		idle    uint64
		want    Decision
		granted uint64
	}{
		{"untagged bypasses admission", ClassNone, lease, 0, Admit, lease},
		{"latency admits into empty pool", Latency, lease, cap, Admit, lease},
		{"latency admits to the last unit", Latency, lease, lease, Admit, lease},
		{"latency rejects only when full", Latency, lease, 0, Reject, 0},
		{"standard admits under 85%", Standard, lease, cap / 2, Admit, lease},
		{"standard queues over 85%", Standard, lease, lease, Queue, 0},
		{"preemptible admits under 60%", Preemptible, lease, cap, Admit, lease},
		{"preemptible rejects over 60%", Preemptible, lease, lease, Reject, 0},
		// Degrade: headroom below full size but above the class floor.
		// used = cap - idle = 188 MiB? No: choose idle so that
		// budget-used lands in [DegradeFrac*size, size).
		// Standard budget = 0.85*192 = 163.2 MiB; idle = 34 MiB →
		// used = 158 MiB → headroom ≈ 5.2 MiB ∈ [4 MiB, 8 MiB).
		{"standard degrades into the gap", Standard, lease, 34 << 20, Degrade, 0},
	}
	for _, tc := range cases {
		dec, g := cfg.Decide(tc.class, tc.size, tc.idle, cap)
		if dec != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, dec, tc.want)
			continue
		}
		switch dec {
		case Admit:
			if g != tc.size {
				t.Errorf("%s: admit granted %d, want %d", tc.name, g, tc.size)
			}
		case Degrade:
			min := uint64(cfg.PerClass[tc.class].DegradeFrac * float64(tc.size))
			if g < min || g >= tc.size || g%degradeAlign != 0 {
				t.Errorf("%s: degraded grant %d outside [%d,%d) or unaligned", tc.name, g, min, tc.size)
			}
		default:
			if g != 0 {
				t.Errorf("%s: %v carried grant %d, want 0", tc.name, dec, g)
			}
		}
	}
}

// TestDecideDeviceUnits runs the same policy over device counts: size 1
// against small integer capacities must admit/reject without ever
// producing a nonsense degraded grant.
func TestDecideDeviceUnits(t *testing.T) {
	cfg := Default()
	if dec, g := cfg.Decide(Latency, 1, 1, 4); dec != Admit || g != 1 {
		t.Errorf("device admit: got %v/%d", dec, g)
	}
	if dec, _ := cfg.Decide(Preemptible, 1, 1, 4); dec != Reject {
		t.Errorf("device over-threshold: got %v, want Reject", dec)
	}
	if dec, _ := cfg.Decide(Latency, 1, 0, 4); dec != Reject {
		t.Errorf("device full-pool latency: got %v, want Reject", dec)
	}
	// A one-unit request has nothing to shrink to: the monitor treats
	// every device verdict as admit, queue or reject.
	for _, c := range Classes() {
		for capacity := uint64(0); capacity <= 16; capacity++ {
			for idle := uint64(0); idle <= capacity; idle++ {
				if dec, _ := cfg.Decide(c, 1, idle, capacity); dec == Degrade {
					t.Fatalf("Decide(%v, 1 unit, idle %d, capacity %d) degraded", c, idle, capacity)
				}
			}
		}
	}
}

func TestBackoff(t *testing.T) {
	var b Backoff // defaults: 500µs base, 8ms cap
	want := []sim.Dur{
		500 * sim.Microsecond,
		sim.Millisecond,
		2 * sim.Millisecond,
		4 * sim.Millisecond,
		8 * sim.Millisecond,
		8 * sim.Millisecond, // capped
	}
	for i, w := range want {
		if d := b.Delay(i); d != w {
			t.Errorf("Delay(%d) = %v, want %v", i, d, w)
		}
	}
	if d := b.Delay(-3); d != 500*sim.Microsecond {
		t.Errorf("Delay(-3) = %v, want base", d)
	}
	if d := b.Delay(200); d != 8*sim.Millisecond {
		t.Errorf("Delay(200) = %v, want cap (no overflow)", d)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{4, 2}, 0.9},
	}
	for _, tc := range cases {
		if got := Jain(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jain(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}
