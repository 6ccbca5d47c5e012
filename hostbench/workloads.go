package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The workloads are fixed lists of registered scenario cells, run
// through the public scenario entry points with the configs their
// registered specs use. The benchmark seed only shifts each trial's
// shard seed (see trialSeed); seed 0 reproduces the registered shard
// seeds, so its trials are the registered trials.

// trialSpec is one shard of one cell.
type trialSpec struct {
	id    string
	shard uint64 // the registered spec's shard seed
	run   func(seed uint64, rec *trialRecord) (harness.Values, error)
}

// trialRecord is what the benchmark observes around one trial run.
type trialRecord struct {
	start, cluster, end time.Time // cluster: when OnCluster handed the cluster over (zero without the hook)
	out                 trialOutput
}

// workload is one named benchmark workload.
type workload struct {
	name   string
	trials []trialSpec
	// setup, for scenarios without an OnCluster hook, builds the cluster
	// every trial of the workload builds (construction plus the RRT
	// warm-up) and returns its Close: the benchmark times it to split
	// each trial into set-up and serving.
	setup func() (close func())
}

// seedShift places a benchmark seed above every registered shard seed.
const seedShift = 16

// trialSeed maps a benchmark seed onto one trial's scenario seed.
func trialSeed(shard, seed uint64) uint64 { return shard + seed<<seedShift }

// Registered shard seeds and request counts of the cells used (from
// internal/experiments: serving.go, churn.go, tenancy.go, servingscale.go).
const (
	servingShardSeed = 9000
	churnShardSeed   = 9100
	tenancyShardSeed = 9300

	tierRequests    = 240
	scaleRequests   = 240
	churnRequests   = 1500
	tenancyRequests = 400
)

var workloads = []workload{
	tierTelemetry(),
	rackScale(),
	leaseChurn(),
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tierTelemetry is migrate-smoke's telemetry pairing: the pressured
// cache-tier cell (n8, u0.90, three tenants) under traffic-aware
// placement with the telemetry plane and the migration loop on, both
// shards.
func tierTelemetry() workload {
	cfg := serving.Config{Workload: serving.Tier, Nodes: 8, Util: 0.9, Requests: tierRequests,
		Tenants: 3, Policy: "traffic-aware", Telemetry: true, Migrate: true}
	w := workload{name: "tier-telemetry", setup: tierSetup}
	for s := uint64(0); s < 2; s++ {
		w.trials = append(w.trials, trialSpec{
			id:    fmt.Sprintf("tier/telemetry/n8/u0.90/s%d", s),
			shard: servingShardSeed + s,
			run:   servingTrial(cfg),
		})
	}
	return w
}

// rackScale is serving-scale's 256-node row (8 racks of 32) at no and
// at half cross-rack traffic, shard 0 of each.
func rackScale() workload {
	w := workload{name: "rack-scale", setup: scaleSetup}
	for _, cross := range []float64{0, 0.5} {
		cfg := serving.Config{Workload: serving.Scale, Racks: 8, RackNodes: 32, CrossFrac: cross,
			Util: 0.7, Requests: scaleRequests}
		w.trials = append(w.trials, trialSpec{
			id:    fmt.Sprintf("scale/n256/r32/x%.2f/s0", cross),
			shard: servingShardSeed,
			run:   servingTrial(cfg),
		})
	}
	return w
}

// leaseChurn is the whole serving-tenancy sweep plus every fast-fault
// cell of serving-churn (both mesh sizes under distance placement, and
// the policy axis at n8), all shards.
func leaseChurn() workload {
	w := workload{name: "lease-churn"}
	for _, c := range []struct {
		util   float64
		shards uint64
	}{{0.5, 1}, {0.8, 2}, {1.1, 2}} {
		cfg := serving.TenancyConfig{Util: c.util, Requests: tenancyRequests}
		for s := uint64(0); s < c.shards; s++ {
			w.trials = append(w.trials, trialSpec{
				id:    fmt.Sprintf("tenancy/u%03.0f/s%d", c.util*100, s),
				shard: tenancyShardSeed + s,
				run:   tenancyTrial(cfg),
			})
		}
	}
	for _, c := range []struct {
		policy string
		nodes  int
	}{{"distance", 4}, {"distance", 8}, {"most-idle", 8}, {"traffic-aware", 8},
		{"spread", 8}, {"coolest-path", 8}} {
		cfg := serving.ChurnConfig{Nodes: c.nodes, Util: 0.7, Requests: churnRequests,
			Policy: c.policy, Fault: serving.FaultFast}
		for s := uint64(0); s < 2; s++ {
			w.trials = append(w.trials, trialSpec{
				id:    fmt.Sprintf("churn/%s/n%d/fast/s%d", c.policy, c.nodes, s),
				shard: churnShardSeed + s,
				run:   churnTrial(cfg),
			})
		}
	}
	return w
}

func servingTrial(cfg serving.Config) func(uint64, *trialRecord) (harness.Values, error) {
	return func(seed uint64, rec *trialRecord) (harness.Values, error) {
		c := cfg
		c.Seed = seed
		r, err := serving.Run(c)
		if err != nil {
			return nil, err
		}
		return servingOutput(r, c, &rec.out)
	}
}

func churnTrial(cfg serving.ChurnConfig) func(uint64, *trialRecord) (harness.Values, error) {
	return func(seed uint64, rec *trialRecord) (harness.Values, error) {
		c := cfg
		c.Seed = seed
		read := func() {}
		c.OnCluster = func(cl *core.Cluster) {
			rec.cluster = time.Now()
			read = watchCluster(cl, &rec.out.counters)
		}
		r, err := serving.RunChurn(c)
		read()
		if err != nil {
			return nil, err
		}
		return churnOutput(r, c, &rec.out)
	}
}

func tenancyTrial(cfg serving.TenancyConfig) func(uint64, *trialRecord) (harness.Values, error) {
	return func(seed uint64, rec *trialRecord) (harness.Values, error) {
		c := cfg
		c.Seed = seed
		read := func() {}
		c.OnCluster = func(cl *core.Cluster) {
			rec.cluster = time.Now()
			read = watchCluster(cl, &rec.out.counters)
		}
		r, err := serving.RunTenancy(c)
		read()
		if err != nil {
			return nil, err
		}
		return tenancyOutput(r, c, &rec.out)
	}
}

// tierSetup builds the cluster serving.Run assembles for the
// tier-telemetry cells: its cluster seed, telemetry beat and migration
// loop settings, policy and one-second RRT warm-up, as set in
// internal/serving/serving.go.
func tierSetup() func() {
	p := sim.Default()
	topo := fabric.Mesh3D(2, 2, 2)
	cl := core.NewCluster(core.Config{Params: &p, Topology: &topo, StartAgents: true,
		Seed: 2111, Telemetry: true, HeartbeatInterval: 250 * sim.Microsecond,
		MigrateInterval: 500 * sim.Microsecond, MigrateUtil: 0.10, MigrateMargin: 0.07})
	pol, ok := monitor.PolicyByName("traffic-aware")
	if !ok {
		panic("hostbench: traffic-aware policy not registered")
	}
	cl.MN.Policy = pol
	cl.RunFor(1 * sim.Second)
	return cl.Close
}

// scaleSetup builds the hierarchical cluster serving.Run assembles for
// the rack-scale cells, whatever their cross-rack fraction (8 racks of 4x4x2, two spines with two 2.5 Gbps
// uplinks per rack, 30 s beats) and runs its one-second warm-up, as set
// in internal/serving/scale.go.
func scaleSetup() func() {
	cl := core.NewHierCluster(core.HierConfig{
		Racks: 8, RackX: 4, RackY: 4, RackZ: 2,
		Spines: 2, Uplinks: 2, SpineGbps: 2.5,
		Seed:              2121,
		HeartbeatInterval: 30 * sim.Second,
		RackBeatInterval:  30 * sim.Second,
	})
	cl.RunFor(1 * sim.Second)
	return cl.Close
}
