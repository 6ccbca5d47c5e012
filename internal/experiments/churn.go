package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The serving-churn experiment family measures availability under donor
// churn: the chaos subsystem rolls crashes through the donor population
// while the Monitor Node's recovery half re-places leases onto
// survivors, and the open-loop load reports what users would see —
// goodput against an SLO deadline, unavailability windows, recovery
// latency, and the tail. Cells sweep mesh size × fault rate × sharing
// policy. Shards vary only the arrival/offset seed; the fault history is
// the cell's (chaos draws from a fixed internal seed), so shard
// histograms merge exactly and any -parallel renders identical bytes.

const (
	churnShardSeed     = 9100
	churnRequests      = 1500
	churnSmokeRequests = 800
)

func churnCellOf(label, policy string, nodes int, fault serving.FaultRate, requests, shards int) cell[serving.ChurnConfig] {
	return cell[serving.ChurnConfig]{
		ID: fmt.Sprintf("churn/%s/n%d/%s", label, nodes, fault),
		Cfg: serving.ChurnConfig{Nodes: nodes, Util: 0.7, Requests: requests,
			Policy: policy, Fault: fault},
		Shards: shards,
	}
}

// churnCellsFull is the registered sweep: mesh size × fault rate under
// the prototype's distance policy, plus the policy axis at the hardest
// point.
func churnCellsFull() []cell[serving.ChurnConfig] {
	var cells []cell[serving.ChurnConfig]
	for _, nodes := range []int{4, 8} {
		for _, fault := range []serving.FaultRate{serving.FaultNone, serving.FaultSlow, serving.FaultFast} {
			cells = append(cells, churnCellOf("distance", "distance", nodes, fault, churnRequests, 2))
		}
	}
	// The policy axis enumerates the registry ("distance" already swept
	// above), so new policies join the hardest point automatically.
	for _, pol := range monitor.PolicyNames() {
		if pol == "distance" {
			continue
		}
		cells = append(cells, churnCellOf(pol, pol, 8, serving.FaultFast, churnRequests, 2))
	}
	return cells
}

// churnCellsShort is the reduced matrix the tests use: the control, the
// cliff, and the scale-out comparison, with one multi-shard cell.
func churnCellsShort() []cell[serving.ChurnConfig] {
	return []cell[serving.ChurnConfig]{
		churnCellOf("distance", "distance", 4, serving.FaultNone, churnRequests, 1),
		churnCellOf("distance", "distance", 4, serving.FaultFast, churnRequests, 2),
		churnCellOf("distance", "distance", 8, serving.FaultFast, churnRequests, 1),
	}
}

// churnSmokeCells is the pinned single-cell subset the bench-regression
// CI gate regenerates on every push — deliberately a faulted cell, so
// the gate exercises detection, failover, and replay, not just serving.
func churnSmokeCells() []cell[serving.ChurnConfig] {
	c := churnCellOf("distance", "distance", 4, serving.FaultFast, churnSmokeRequests, 1)
	c.ID = "churn-smoke/n4/fast"
	return []cell[serving.ChurnConfig]{c}
}

// churnTrial runs one shard of a cell.
func churnTrial(cfg serving.ChurnConfig, seed uint64) (harness.Values, error) {
	cfg.Seed = seed
	r, err := serving.RunChurn(cfg)
	if err != nil {
		return nil, err
	}
	v := harness.Values{
		"offered_rps":     r.OfferedRPS,
		"achieved_rps":    r.AchievedRPS,
		"goodput_rps":     r.GoodputRPS,
		"svc_ns":          r.ServiceNS,
		"failed":          float64(r.Failed),
		"requests":        float64(cfg.Requests),
		"unavail_ns":      float64(r.UnavailNS),
		"crashes":         float64(r.Crashes),
		"recoveries":      float64(r.Recoveries),
		"recover_mean_ns": r.RecoverMeanNS,
		"dead_accesses":   float64(r.DeadAccesses),
	}
	putHist(v, "", r.Lat)
	return v, nil
}

// ChurnCellResult is one assembled sweep cell.
type ChurnCellResult struct {
	ID            string
	Fault         serving.FaultRate
	OfferedRPS    float64
	GoodputRPS    float64
	FailedFrac    float64
	UnavailMS     float64 // mean per-shard unavailability, ms
	Crashes       int64   // per shard (identical across shards by design)
	Recoveries    int64   // summed over shards
	RecoverMeanNS float64
	P50           sim.Dur
	P99           sim.Dur
	P999          sim.Dur
	Hist          *sim.LatencyHist
}

// ChurnResult is the assembled sweep.
type ChurnResult = Sweep[ChurnCellResult]

// churnFamily is the churn sweep's plumbing: each cell merges its shard
// histograms exactly and folds the scalar metrics.
var churnFamily = family[serving.ChurnConfig, ChurnCellResult]{
	shardSeed: churnShardSeed,
	title:     "Serving churn — availability under donor crash/restart (open-loop, SLO deadline 50x service)",
	columns: []string{"cell", "offered rps", "goodput rps", "failed", "unavail",
		"crashes", "recov", "recov mean", "p50", "p99", "p999"},
	trial: churnTrial,
	fold: func(r *harness.Result, cell cell[serving.ChurnConfig], shards []string) (ChurnCellResult, error) {
		merged, err := mergedHist(r, shards, "")
		if err != nil {
			return ChurnCellResult{}, err
		}
		var goodput, failed, requests, unavail, recovWeighted float64
		var crashes, recoveries int64
		for _, trial := range shards {
			goodput += r.Val(trial, "goodput_rps")
			failed += r.Val(trial, "failed")
			requests += r.Val(trial, "requests")
			unavail += r.Val(trial, "unavail_ns")
			// Shards share the installed fault schedule, but each engine
			// stops at its own completion instant, so a faster shard can
			// apply fewer trailing crashes; report the fullest view.
			if v := int64(r.Val(trial, "crashes")); v > crashes {
				crashes = v
			}
			recoveries += int64(r.Val(trial, "recoveries"))
			recovWeighted += r.Val(trial, "recover_mean_ns") * r.Val(trial, "recoveries")
		}
		n := float64(cell.Shards)
		c := ChurnCellResult{
			ID:         cell.ID,
			Fault:      cell.Cfg.Fault,
			OfferedRPS: r.Val(shards[0], "offered_rps"),
			GoodputRPS: goodput / n,
			FailedFrac: failed / requests,
			UnavailMS:  unavail / n / 1e6,
			Crashes:    crashes,
			Recoveries: recoveries,
			P50:        sim.Dur(merged.Quantile(50)),
			P99:        sim.Dur(merged.Quantile(99)),
			P999:       sim.Dur(merged.Quantile(99.9)),
			Hist:       merged,
		}
		if recoveries > 0 {
			c.RecoverMeanNS = recovWeighted / float64(recoveries)
		}
		return c, nil
	},
	row: func(t *Table, c ChurnCellResult) {
		t.AddRow(c.ID,
			fmt.Sprintf("%.0f", c.OfferedRPS),
			fmt.Sprintf("%.0f", c.GoodputRPS),
			fmt.Sprintf("%.1f%%", 100*c.FailedFrac),
			fmt.Sprintf("%.2fms", c.UnavailMS),
			fmt.Sprintf("%d", c.Crashes),
			fmt.Sprintf("%d", c.Recoveries),
			fmt.Sprintf("%.2fms", c.RecoverMeanNS/1e6),
			c.P50.String(), c.P99.String(), c.P999.String())
	},
}

// ServingChurn runs the full availability-under-churn sweep.
func ServingChurn() *ChurnResult { return runSweep[ChurnCellResult]("serving-churn") }

// ChurnSmoke runs the single-cell CI subset.
func ChurnSmoke() *ChurnResult { return runSweep[ChurnCellResult]("churn-smoke") }

// churnOf runs an ad-hoc cell list (the tests' reduced matrices).
func churnOf(cells []cell[serving.ChurnConfig]) *ChurnResult {
	return runSpec("churn-subset", churnFamily.spec("Serving churn — subset", cells)).(*ChurnResult)
}
