package experiments

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/tenancy"
)

// tenancyOf assembles a custom cell list through the harness, like the
// registered specs do.
func tenancyOf(t *testing.T, cells []cell[serving.TenancyConfig]) *TenancyResult {
	t.Helper()
	res, _, err := harness.Run("tenancy-test", tenancyFamily.spec("tenancy test subset", cells), harness.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res.(*TenancyResult)
}

// TestTenancyFindings asserts the sweep's qualitative findings — the
// acceptance criteria of the tenancy plane — on a saturated cell: the
// Latency class is held whole (zero lost sessions, low SLO-miss rate)
// while the Preemptible class absorbs the pressure as preemptions and
// rejections.
func TestTenancyFindings(t *testing.T) {
	cells := []cell[serving.TenancyConfig]{tenancySweepCell(0.9, 240, 2)}
	r := tenancyOf(t, cells)
	c := r.Cell("tenancy/u090")
	if c == nil {
		t.Fatalf("cell missing from %v", r.Cells)
	}
	lat := c.PerClass[tenancy.Latency]
	pre := c.PerClass[tenancy.Preemptible]
	if lat.Offered == 0 || pre.Offered == 0 {
		t.Fatalf("class mix broken: latency %d, preemptible %d offered", lat.Offered, pre.Offered)
	}
	if lat.Rejected != 0 {
		t.Fatalf("Latency class lost %d of %d sessions", lat.Rejected, lat.Offered)
	}
	if rate := lat.SLOMissRate(); rate > 0.1 {
		t.Fatalf("Latency SLO-miss rate %.3f, want held under 0.1", rate)
	}
	if c.Preemptions == 0 {
		t.Fatal("saturated cell recorded no preemptions; the pressure valve never engaged")
	}
	if pre.Rejected == 0 {
		t.Fatal("Preemptible class absorbed no rejections despite saturation")
	}
	if lat.Goodput() <= pre.Goodput() {
		t.Fatalf("class lattice inverted: latency goodput %.3f <= preemptible %.3f",
			lat.Goodput(), pre.Goodput())
	}
	if c.Fairness <= 0 || c.Fairness > 1 {
		t.Fatalf("Jain fairness = %v, want in (0, 1]", c.Fairness)
	}
	for _, cl := range tenancy.Classes() {
		pc := c.PerClass[cl]
		if pc.Completed > 0 && pc.P50 > pc.P99 {
			t.Fatalf("class %s quantiles disordered: %v > %v", cl, pc.P50, pc.P99)
		}
	}
	t.Logf("\n%s", r.Table.String())
}

// TestTenancyParallelismByteIdentical is the harness contract applied
// to the admission-plane sweep: the cluster build, arrival stream,
// class mix, and every preemption decision are seeded, so any
// -parallel value renders the same bytes. The CI byte-identity step
// runs this test.
func TestTenancyParallelismByteIdentical(t *testing.T) {
	cells := append(tenancySmokeCells(), tenancySweepCell(0.6, 120, 2))
	spec := tenancyFamily.spec("Serving tenancy — byte-identity subset", cells)
	sequential, _, err := harness.Run("tenancy-ident", spec, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := harness.Run("tenancy-ident", spec, harness.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sequential.String() != parallel.String() {
		t.Fatalf("tenancy renders differently under -parallel 4:\n%s\nvs\n%s", sequential, parallel)
	}
	if !strings.Contains(sequential.String(), "fairness") {
		t.Fatalf("tenancy table lost its fairness column:\n%s", sequential)
	}
}

// TestTenancySmokeShape pins the smoke cell's shape: the CI gate
// regenerates exactly this spec, so its trial list must stay stable.
func TestTenancySmokeShape(t *testing.T) {
	spec, _ := harness.Lookup("tenancy-smoke")
	if len(spec.Trials) != 1 {
		t.Fatalf("smoke spec has %d trials, want 1", len(spec.Trials))
	}
	if got := spec.Trials[0].ID; got != "tenancy-smoke/u90/s0" {
		t.Fatalf("smoke trial id %q drifted", got)
	}
	if spec.Trials[0].Seed != tenancyShardSeed {
		t.Fatalf("smoke trial seed %d drifted from %d", spec.Trials[0].Seed, tenancyShardSeed)
	}
	var _ serving.TenancyConfig = tenancySmokeCells()[0].Cfg
}
