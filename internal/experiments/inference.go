package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The serving-inference experiment family measures the device plane
// under open-loop serving load: an inference farm computes on leased
// remote accelerators and egresses over a bond of leased remote NICs.
// Cells sweep load and fault rate on the flat mesh (rolling crashes
// through the donor farm exercise device-lease failover and chunk
// replay) and rack count × cross-rack fraction on the rack/spine
// fabrics (cross-delegated accelerator leases put the request's data
// motion on the oversubscribed spine). Shards vary only the
// arrival/lease-pick seed; chaos history and every placement are the
// cell's, so shard histograms merge exactly and any -parallel renders
// identical bytes.

const (
	inferShardSeed     = 9200
	inferRequests      = 600
	inferHierRequests  = 400
	inferSmokeRequests = 300
)

// inferFlatCell builds a flat-mesh cell.
func inferFlatCell(nodes int, util float64, fault serving.FaultRate, requests, shards int) cell[serving.Config] {
	id := fmt.Sprintf("infer/flat/n%d/%s/u%02.0f", nodes, fault, util*100)
	return cell[serving.Config]{
		ID: id,
		Cfg: serving.Config{Workload: serving.Inference, Nodes: nodes, Util: util,
			Requests: requests, Fault: fault},
		Shards: shards,
	}
}

// inferHierCell builds a rack/spine cell.
func inferHierCell(racks int, crossFrac float64, requests, shards int) cell[serving.Config] {
	return cell[serving.Config]{
		ID: fmt.Sprintf("infer/hier/r%d/cf%02.0f", racks, crossFrac*100),
		Cfg: serving.Config{Workload: serving.Inference, Util: 0.7, Requests: requests,
			Racks: racks, RackNodes: 8, CrossFrac: crossFrac},
		Shards: shards,
	}
}

// inferCellsFull is the registered sweep: the load axis on the healthy
// flat mesh, the fault axis at the operating point, and rack count ×
// cross-rack fraction on the hierarchy.
func inferCellsFull() []cell[serving.Config] {
	var cells []cell[serving.Config]
	for _, util := range []float64{0.5, 0.7, 0.9} {
		cells = append(cells, inferFlatCell(8, util, serving.FaultNone, inferRequests, 1))
	}
	for _, fault := range []serving.FaultRate{serving.FaultSlow, serving.FaultFast} {
		cells = append(cells, inferFlatCell(8, 0.7, fault, inferRequests, 2))
	}
	cells = append(cells, inferFlatCell(4, 0.7, serving.FaultFast, inferRequests, 1))
	for _, racks := range []int{2, 4} {
		for _, cf := range []float64{0, 0.5} {
			cells = append(cells, inferHierCell(racks, cf, inferHierRequests, 1))
		}
	}
	return cells
}

// inferSmokeCells is the pinned single-cell subset the bench-regression
// CI gate regenerates on every push — a faulted cell, so the gate
// exercises device-lease failover and chunk replay, not just serving.
func inferSmokeCells() []cell[serving.Config] {
	c := inferFlatCell(8, 0.7, serving.FaultFast, inferSmokeRequests, 1)
	c.ID = "inference-smoke/n8/fast"
	return []cell[serving.Config]{c}
}

// inferTrial runs one shard of a cell.
func inferTrial(cfg serving.Config, seed uint64) (harness.Values, error) {
	cfg.Seed = seed
	r, err := serving.Run(cfg)
	if err != nil {
		return nil, err
	}
	v := harness.Values{
		"offered_rps":   r.OfferedRPS,
		"achieved_rps":  r.AchievedRPS,
		"svc_ns":        r.ServiceNS,
		"requests":      float64(cfg.Requests),
		"max_queue":     float64(r.MaxQueue),
		"crashes":       float64(r.Crashes),
		"dev_failovers": float64(r.DevFailovers),
	}
	putHist(v, "", r.Lat)
	return v, nil
}

// InferenceCellResult is one assembled sweep cell.
type InferenceCellResult struct {
	ID           string
	OfferedRPS   float64
	AchievedRPS  float64
	ServiceNS    float64
	Crashes      int64 // fullest shard view (shards share the fault history)
	DevFailovers int64 // fullest shard view
	P50          sim.Dur
	P99          sim.Dur
	P999         sim.Dur
	Hist         *sim.LatencyHist
}

// InferenceResult is the assembled sweep.
type InferenceResult = Sweep[InferenceCellResult]

// inferFamily is the inference sweep's plumbing: each cell merges its
// shard histograms exactly and folds the scalar metrics.
var inferFamily = family[serving.Config, InferenceCellResult]{
	shardSeed: inferShardSeed,
	title:     "Serving inference — leased accelerators + bonded NIC egress (open-loop)",
	columns: []string{"cell", "offered rps", "achieved rps", "svc",
		"crashes", "failovers", "p50", "p99", "p999"},
	trial: inferTrial,
	fold: func(r *harness.Result, cell cell[serving.Config], shards []string) (InferenceCellResult, error) {
		merged, err := mergedHist(r, shards, "")
		if err != nil {
			return InferenceCellResult{}, err
		}
		var achieved float64
		var crashes, failovers int64
		for _, trial := range shards {
			achieved += r.Val(trial, "achieved_rps")
			// Shards share the installed fault schedule, but each engine
			// stops at its own completion instant; report the fullest view.
			if v := int64(r.Val(trial, "crashes")); v > crashes {
				crashes = v
			}
			if v := int64(r.Val(trial, "dev_failovers")); v > failovers {
				failovers = v
			}
		}
		return InferenceCellResult{
			ID:           cell.ID,
			OfferedRPS:   r.Val(shards[0], "offered_rps"),
			AchievedRPS:  achieved / float64(cell.Shards),
			ServiceNS:    r.Val(shards[0], "svc_ns"),
			Crashes:      crashes,
			DevFailovers: failovers,
			P50:          sim.Dur(merged.Quantile(50)),
			P99:          sim.Dur(merged.Quantile(99)),
			P999:         sim.Dur(merged.Quantile(99.9)),
			Hist:         merged,
		}, nil
	},
	row: func(t *Table, c InferenceCellResult) {
		t.AddRow(c.ID,
			fmt.Sprintf("%.0f", c.OfferedRPS),
			fmt.Sprintf("%.0f", c.AchievedRPS),
			fmt.Sprintf("%.2fms", c.ServiceNS/1e6),
			fmt.Sprintf("%d", c.Crashes),
			fmt.Sprintf("%d", c.DevFailovers),
			c.P50.String(), c.P99.String(), c.P999.String())
	},
}

// ServingInference runs the full device-plane serving sweep.
func ServingInference() *InferenceResult { return runSweep[InferenceCellResult]("serving-inference") }

// InferenceSmoke runs the single-cell CI subset.
func InferenceSmoke() *InferenceResult { return runSweep[InferenceCellResult]("inference-smoke") }
