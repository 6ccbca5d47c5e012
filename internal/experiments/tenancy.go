package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// The serving-tenancy experiment family measures the admission plane
// under a class-mixed, flash-crowd session load: thousands of tenant
// identities in three SLO classes compete for an oversubscribed lease
// pool, and the sweep reports — per class — goodput, tail latency, and
// SLO-miss rate, alongside the preemption traffic that keeps the
// Latency class whole. Cells sweep offered load; shards vary only the
// arrival/class-mix seed, so shard histograms merge exactly and any
// -parallel renders identical bytes.

const (
	tenancyShardSeed     = 9300
	tenancyRequests      = 400
	tenancySmokeRequests = 240
)

// tenancySweepCell builds one load cell.
func tenancySweepCell(util float64, requests, shards int) cell[serving.TenancyConfig] {
	return cell[serving.TenancyConfig]{
		ID:     fmt.Sprintf("tenancy/u%03.0f", util*100),
		Cfg:    serving.TenancyConfig{Util: util, Requests: requests},
		Shards: shards,
	}
}

// tenancyCellsFull is the registered sweep: below saturation the plane
// barely intervenes; at and past saturation the preemption and queue
// paths carry the Latency class through.
func tenancyCellsFull() []cell[serving.TenancyConfig] {
	return []cell[serving.TenancyConfig]{
		tenancySweepCell(0.5, tenancyRequests, 1),
		tenancySweepCell(0.8, tenancyRequests, 2),
		tenancySweepCell(1.1, tenancyRequests, 2),
	}
}

// tenancySmokeCells is the pinned single-cell subset the
// bench-regression CI gate regenerates on every push — the saturated
// operating point, so the gate exercises queueing and preemption, not
// just admission bookkeeping.
func tenancySmokeCells() []cell[serving.TenancyConfig] {
	c := tenancySweepCell(0.9, tenancySmokeRequests, 1)
	c.ID = "tenancy-smoke/u90"
	return []cell[serving.TenancyConfig]{c}
}

// tenancyTrial runs one shard of a cell. Per-class metrics are exported
// under a class-name prefix ("latency_offered", "standard_lat_b042", ...).
func tenancyTrial(cfg serving.TenancyConfig, seed uint64) (harness.Values, error) {
	cfg.Seed = seed
	r, err := serving.RunTenancy(cfg)
	if err != nil {
		return nil, err
	}
	v := harness.Values{
		"svc_ns":          r.ServiceNS,
		"offered_rps":     r.OfferedRPS,
		"requests":        float64(cfg.Requests),
		"preemptions":     float64(r.Preemptions),
		"degrades":        float64(r.Degrades),
		"queue_admits":    float64(r.QueueAdmits),
		"holder_acquires": float64(r.HolderAcquires),
		"holder_preempts": float64(r.HolderPreemptions),
	}
	for _, cl := range tenancy.Classes() {
		cs, pfx := r.PerClass[cl], cl.String()
		v[pfx+"_offered"] = float64(cs.Offered)
		v[pfx+"_completed"] = float64(cs.Completed)
		v[pfx+"_rejected"] = float64(cs.Rejected)
		v[pfx+"_slo_miss"] = float64(cs.SLOMiss)
		v[pfx+"_deadline_ns"] = float64(cs.Deadline)
		putHist(v, pfx+"_", cs.Lat)
	}
	return v, nil
}

// TenancyClassResult is one class's merged ledger within a cell.
type TenancyClassResult struct {
	Class     tenancy.Class
	Offered   int64
	Completed int64
	Rejected  int64
	SLOMiss   int64
	P50       sim.Dur
	P99       sim.Dur
	Hist      *sim.LatencyHist
}

// Goodput is the fraction of offered sessions that completed.
func (c TenancyClassResult) Goodput() float64 {
	if c.Offered == 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.Offered)
}

// SLOMissRate is the fraction of completed sessions past deadline.
func (c TenancyClassResult) SLOMissRate() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.SLOMiss) / float64(c.Completed)
}

// TenancyCellResult is one assembled sweep cell.
type TenancyCellResult struct {
	ID          string
	OfferedRPS  float64
	ServiceNS   float64
	Preemptions int64
	Degrades    int64
	QueueAdmits int64
	// Fairness is the Jain index over the shard-merged per-class
	// completion ratios.
	Fairness float64
	PerClass [tenancy.NumClasses]TenancyClassResult
}

// TenancyResult is the assembled sweep.
type TenancyResult = Sweep[TenancyCellResult]

// tenancyFamily is the tenancy sweep's plumbing: each cell merges its
// shard ledgers per class and folds the admission-plane counters.
var tenancyFamily = family[serving.TenancyConfig, TenancyCellResult]{
	shardSeed: tenancyShardSeed,
	title:     "Serving tenancy — SLO classes under flash-crowd admission (open-loop)",
	columns: []string{"cell", "class", "offered", "goodput",
		"slo-miss", "p50", "p99", "preempts", "fairness"},
	trial: tenancyTrial,
	fold: func(r *harness.Result, cell cell[serving.TenancyConfig], shards []string) (TenancyCellResult, error) {
		c := TenancyCellResult{ID: cell.ID}
		for _, trial := range shards {
			c.Preemptions += int64(r.Val(trial, "preemptions"))
			c.Degrades += int64(r.Val(trial, "degrades"))
			c.QueueAdmits += int64(r.Val(trial, "queue_admits"))
		}
		c.OfferedRPS = r.Val(shards[0], "offered_rps")
		c.ServiceNS = r.Val(shards[0], "svc_ns")
		var ratios []float64
		for _, cl := range tenancy.Classes() {
			pfx := cl.String()
			h, err := mergedHist(r, shards, pfx+"_")
			if err != nil {
				return TenancyCellResult{}, err
			}
			pc := &c.PerClass[cl]
			pc.Class, pc.Hist = cl, h
			for _, trial := range shards {
				pc.Offered += int64(r.Val(trial, pfx+"_offered"))
				pc.Completed += int64(r.Val(trial, pfx+"_completed"))
				pc.Rejected += int64(r.Val(trial, pfx+"_rejected"))
				pc.SLOMiss += int64(r.Val(trial, pfx+"_slo_miss"))
			}
			pc.P50 = sim.Dur(pc.Hist.Quantile(50))
			pc.P99 = sim.Dur(pc.Hist.Quantile(99))
			if pc.Offered > 0 {
				ratios = append(ratios, pc.Goodput())
			}
		}
		c.Fairness = tenancy.Jain(ratios)
		return c, nil
	},
	row: func(t *Table, c TenancyCellResult) {
		for i, cl := range tenancy.Classes() {
			pc := c.PerClass[cl]
			id, preempts, fair := "", "", ""
			if i == 0 { // cell-level columns only on the first class row
				id = c.ID
				preempts = fmt.Sprintf("%d", c.Preemptions)
				fair = fmt.Sprintf("%.3f", c.Fairness)
			}
			t.AddRow(id, cl.String(),
				fmt.Sprintf("%d", pc.Offered),
				fmt.Sprintf("%.3f", pc.Goodput()),
				fmt.Sprintf("%.3f", pc.SLOMissRate()),
				pc.P50.String(), pc.P99.String(), preempts, fair)
		}
	},
}
