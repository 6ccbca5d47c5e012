package experiments

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/serving"
)

// scaleTestCells is the reduced matrix: the smoke cell plus the
// cheapest two-rack full-cross cell, so both the delegation path and
// the multi-shard merge stay exercised.
func scaleTestCells() []cell[serving.Config] {
	extra := scaleCell(2, 8, 0)
	extra.Cfg.Requests = scaleSmokeRequests
	return append(scaleSmokeCells(), extra)
}

// TestScaleParallelismByteIdentical is the harness contract applied to
// the rack-scale sweep: hierarchical clusters, root-MN delegation, and
// background tenants all build from per-trial seeds, so any -parallel
// value renders the same bytes. The CI race job runs this test under
// the detector.
func TestScaleParallelismByteIdentical(t *testing.T) {
	spec := servingFamily.spec("Serving at rack scale — byte-identity subset", scaleTestCells())
	sequential, _, err := harness.Run("scale-ident", spec, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := harness.Run("scale-ident", spec, harness.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sequential.String() != parallel.String() {
		t.Fatalf("serving-scale renders differently under -parallel 4:\n%s\nvs\n%s",
			sequential, parallel)
	}
	if !strings.Contains(sequential.String(), "p999") {
		t.Fatalf("serving-scale table lost its percentile columns:\n%s", sequential)
	}
}

// TestScaleSweepFindings runs the reduced matrix once and checks the
// qualitative finding the full sweep reports: the cross-rack cell pays
// a visible median penalty over the rack-local one.
func TestScaleSweepFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("two rack-scale cells")
	}
	res := servingOf(scaleTestCells())
	crossed := res.Cell("scale/n16/r8/x0.50")
	local := res.Cell("scale/n16/r8/x0.00")
	if crossed == nil || local == nil {
		t.Fatalf("cells missing from sweep:\n%s", res)
	}
	if crossed.P50 <= local.P50 {
		t.Fatalf("cross-rack p50 %v not above rack-local %v:\n%s", crossed.P50, local.P50, res)
	}
}
