package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// Every read of the program's internal statistics — scenario result
// structs, the monitor's Scoreboard keys, the fabric's and endpoints'
// counters and histograms — lives in this file, so a change to those
// types touches the benchmark here and nowhere else.

// trialOutput is what one trial leaves for the benchmark besides its
// simulated values.
type trialOutput struct {
	requests int64            // measured requests the scenario completed
	lat      *sim.LatencyHist // their end-to-end latencies (virtual)
	counters counters
}

// add folds another trial's output into o.
func (o *trialOutput) add(x trialOutput) {
	o.requests += x.requests
	if o.lat == nil {
		o.lat = &sim.LatencyHist{}
	}
	if x.lat != nil {
		o.lat.Merge(x.lat)
	}
	o.counters.add(x.counters)
}

// latencyUS reports the merged latency histogram's p50 and p99 in
// microseconds, and its sample count.
func (o *trialOutput) latencyUS() (p50, p99 float64, n int64) {
	if o.lat == nil {
		return 0, 0, 0
	}
	return float64(o.lat.Quantile(50)) / 1e3, float64(o.lat.Quantile(99)) / 1e3, o.lat.N()
}

// counters are exact per-layer counts read off the simulated clusters a
// scenario hands over through its OnCluster hook. Scenarios without the
// hook leave them zero; clusters says how many were read.
type counters struct {
	clusters    int64
	events      int64 // engine events fired
	grants      int64 // monitor grants (memory and devices)
	attempts    int64 // grants plus rejects, failures and donor retries
	failovers   int64 // leases re-placed after a donor death
	preemptions int64 // Preemptible leases revoked for a higher class
	packets     int64 // packets carried by fabric links
	bytes       int64
	pktP99      int64 // worst cluster's packet-latency p99, ns (virtual)
	crmaFills   int64
	fillP99     int64 // worst endpoint's CRMA fill-latency p99, ns (virtual)
	rdmaOps     int64
}

func (c *counters) add(o counters) {
	c.clusters += o.clusters
	c.events += o.events
	c.grants += o.grants
	c.attempts += o.attempts
	c.failovers += o.failovers
	c.preemptions += o.preemptions
	c.packets += o.packets
	c.bytes += o.bytes
	c.pktP99 = max(c.pktP99, o.pktP99)
	c.crmaFills += o.crmaFills
	c.fillP99 = max(c.fillP99, o.fillP99)
	c.rdmaOps += o.rdmaOps
}

// grantKeys are the monitor Scoreboard keys of successful grants;
// failKeys those of attempts that did not grant.
var (
	grantKeys = []string{"alloc.memory", "alloc.accelerator", "alloc.nic"}
	failKeys  = []string{"alloc.failures", "alloc.retries", "alloc.dead_skips",
		"alloc.grant_timeouts", "admit.rejected"}
)

// watchCluster subscribes to a cluster's lease events and returns the
// function that, once the scenario has returned, reads the cluster's
// counters into c. Observers run outside virtual time, so watching
// leaves the simulated values unchanged.
func watchCluster(cl *core.Cluster, c *counters) (read func()) {
	var failovers, preemptions int64
	cancel := cl.Observe(func(ev core.Event) {
		switch ev.Type {
		case core.LeaseFailedOver:
			failovers++
		case core.LeasePreempted:
			preemptions++
		}
	})
	return func() {
		cancel()
		o := counters{clusters: 1, events: int64(cl.Eng.Fired()),
			failovers: failovers, preemptions: preemptions}
		for _, k := range grantKeys {
			o.grants += cl.MN.Stats.Get(k)
		}
		o.attempts = o.grants
		for _, k := range failKeys {
			o.attempts += cl.MN.Stats.Get(k)
		}
		ls := cl.Net.TotalLinkStats()
		o.packets, o.bytes = ls.Packets, ls.Bytes
		o.pktP99 = cl.Net.Lat.Percentile(99)
		for _, n := range cl.Nodes {
			crma, rdma := &n.EP.CRMA.Stats, &n.EP.RDMA.Stats
			o.crmaFills += crma.Fills
			o.fillP99 = max(o.fillP99, crma.FillLat.Percentile(99))
			o.rdmaOps += rdma.Reads + rdma.Writes
		}
		c.add(o)
	}
}

// latValues exports a latency histogram the way the registered specs
// do: exact sum/min/max plus every bucket count.
func latValues(v harness.Values, prefix string, h *sim.LatencyHist) {
	v[prefix+"lat_sum"] = float64(h.Sum())
	v[prefix+"lat_min"] = float64(h.Min())
	v[prefix+"lat_max"] = float64(h.Max())
	for _, b := range h.Buckets() {
		v[fmt.Sprintf("%slat_b%03d", prefix, b.Index)] = float64(b.Count)
	}
}

// servingOutput checks and exports a serving.Run result under the keys
// the registered serving specs use, so a benchmark trial that repeats a
// gated cell can be compared with BENCH_BASELINE.json value for value.
func servingOutput(r *serving.Result, cfg serving.Config, out *trialOutput) (harness.Values, error) {
	if n := r.Lat.N(); n != int64(cfg.Requests) {
		return nil, fmt.Errorf("served %d of %d requests", n, cfg.Requests)
	}
	out.requests, out.lat = r.Lat.N(), r.Lat
	v := harness.Values{
		"offered_rps":  r.OfferedRPS,
		"achieved_rps": r.AchievedRPS,
		"svc_ns":       r.ServiceNS,
	}
	latValues(v, "", r.Lat)
	return v, nil
}

// churnOutput checks and exports a serving.RunChurn result (the
// serving-churn spec's keys).
func churnOutput(r *serving.ChurnResult, cfg serving.ChurnConfig, out *trialOutput) (harness.Values, error) {
	if n := r.Lat.N(); n != int64(cfg.Requests) {
		return nil, fmt.Errorf("completed %d of %d requests", n, cfg.Requests)
	}
	if r.DeadAccesses != 0 {
		return nil, fmt.Errorf("%d reads hit a revoked window", r.DeadAccesses)
	}
	out.requests, out.lat = r.Lat.N(), r.Lat
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
	latValues(v, "", r.Lat)
	return v, nil
}

// tenancyOutput checks and exports a serving.RunTenancy result (the
// serving-tenancy spec's keys). Every offered session must be accounted
// exactly once, as completed or rejected.
func tenancyOutput(r *serving.TenancyResult, cfg serving.TenancyConfig, out *trialOutput) (harness.Values, error) {
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
	out.lat = &sim.LatencyHist{}
	var offered int
	for _, cl := range tenancy.Classes() {
		cs, pfx := r.PerClass[cl], cl.String()
		if cs.Completed+cs.Rejected != cs.Offered {
			return nil, fmt.Errorf("class %s: %d completed + %d rejected != %d offered",
				pfx, cs.Completed, cs.Rejected, cs.Offered)
		}
		offered += cs.Offered
		out.requests += int64(cs.Completed)
		out.lat.Merge(cs.Lat)
		v[pfx+"_offered"] = float64(cs.Offered)
		v[pfx+"_completed"] = float64(cs.Completed)
		v[pfx+"_rejected"] = float64(cs.Rejected)
		v[pfx+"_slo_miss"] = float64(cs.SLOMiss)
		v[pfx+"_deadline_ns"] = float64(cs.Deadline)
		latValues(v, pfx+"_", cs.Lat)
	}
	if offered != cfg.Requests {
		return nil, fmt.Errorf("offered %d of %d sessions", offered, cfg.Requests)
	}
	return v, nil
}
