package serving

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// The churn scenario is the availability-under-failure complement to the
// load scenarios: an app server leases remote-memory windows through the
// Monitor Node and serves open-loop requests out of them while a chaos
// schedule rolls crashes through the donor population. What it measures
// is the recovery machinery itself — heartbeat-timeout detection, donor
// re-election, lease re-placement, and in-flight replay — expressed in
// serving terms: goodput (completions within an SLO deadline),
// unavailability windows (completion stalls), and the latency tail.

// FaultRate names the churn intensity a cell runs under.
type FaultRate string

// The swept churn intensities. Rates are expressed as the per-donor
// crash period of a rolling-churn plan (outage length is fixed), so
// "fast" means each donor crashes about every churnFastPeriod of
// virtual time.
const (
	FaultNone FaultRate = "none" // control: no faults
	FaultSlow FaultRate = "slow"
	FaultFast FaultRate = "fast"
)

// ChurnConfig shapes one churn scenario run.
type ChurnConfig struct {
	// Nodes is the mesh size: 4 or 8. The MN runs on node 0 (excluded
	// from donation), the app server on node 1; everything else donates.
	Nodes int
	// Util is offered load as a fraction of calibrated capacity.
	Util float64
	// Requests is the number of measured open-loop requests (Poisson
	// arrivals).
	Requests int
	// Policy names the MN sharing policy ("" = distance-first).
	Policy string
	// Fault selects the churn intensity (default FaultNone).
	Fault FaultRate
	// SparePool pre-plugs one lease-sized spare region per donor: the
	// carve's hot-remove happens when the pool fills (off the serving
	// path), so a failover's replacement grant skips the ~2 ms hot-plug
	// and recovery latency collapses to the control-plane round trips.
	SparePool bool
	// Seed drives the arrival and offset streams (the shard axis).
	// Chaos instants derive from a fixed internal seed so every shard of
	// a cell sees the same fault history.
	Seed uint64

	// The remaining fields are observability hooks (venice-serve). All
	// run OUTSIDE virtual time — they may read simulation state but must
	// not sleep, block, or touch the engine — so leaving them nil (the
	// default) and setting them produce byte-identical results.

	// OnCluster, when set, receives the cluster after its RRT is
	// populated and before serving starts: the place to attach
	// lease-lifecycle observers or capture handles for snapshots.
	OnCluster func(*core.Cluster)
	// Throttle, when set, is called between engine steps on the driving
	// goroutine. venice-serve uses it to pace virtual time against wall
	// clock and to publish state snapshots at a safe point.
	Throttle func()
	// Observe, when set, receives every measured request's end-to-end
	// latency as it completes (it is also recorded in ChurnResult.Lat).
	Observe func(sim.Dur)
}

// ChurnResult is one churn run's measurements.
type ChurnResult struct {
	// Lat holds every request's end-to-end latency (arrival to
	// completion, queueing and outage stalls included).
	Lat *sim.LatencyHist
	// OfferedRPS is the open-loop arrival rate.
	OfferedRPS float64
	// AchievedRPS counts every completion over the measured window.
	AchievedRPS float64
	// GoodputRPS counts only completions within the SLO deadline.
	GoodputRPS float64
	// ServiceNS is the calibrated closed-loop mean service time.
	ServiceNS float64
	// Deadline is the SLO the goodput is measured against
	// (churnDeadlineMult × ServiceNS).
	Deadline sim.Dur
	// Failed counts deadline misses. Every request still completes —
	// zero-loss accounting is asserted by the scenario — so Failed is an
	// SLO figure, not a loss figure.
	Failed int
	// UnavailNS totals completion-stall time: for each inter-completion
	// gap exceeding the stall threshold (churnStallMult × ServiceNS),
	// the excess is charged as unavailability.
	UnavailNS int64
	// Crashes and Recoveries count injected donor crashes and completed
	// lease re-placements; RecoverMeanNS is the mean MN-side
	// re-placement latency (detection excluded).
	Crashes       int64
	Recoveries    int64
	RecoverMeanNS float64
	// DeadAccesses counts reads that hit a revoked window (re-placement
	// found no donor). Zero in every swept configuration — rolling churn
	// keeps a survivor available by construction.
	DeadAccesses int64
}

// Scenario-internal calibration constants (shared by every cell, like
// the serving scenarios' — the sweep varies only load, scale, policy,
// and fault rate).
const (
	churnClusterSeed = 2121
	churnChaosSeed   = 2122
	churnCalSeed     = 2123

	churnLeases     = 2 // windows the working set spreads over, each placed independently
	churnLeaseBytes = uint64(8 << 20)
	churnReadBytes  = 2048
	churnThink      = 20 * sim.Microsecond
	churnCalibrate  = 48

	// The fast control plane of the flat churn rig (churn and flat
	// inference), so failure detection resolves within a rolling outage.
	churnBeatInterval = 100 * sim.Microsecond
	churnBeatTimeout  = 500 * sim.Microsecond
	churnSweep        = 250 * sim.Microsecond

	// Rolling-churn timing: each cycle crashes the next donor for
	// churnOutage; the period between crashes sets the fault rate.
	churnOutage     = 4 * sim.Millisecond
	churnSlowPeriod = 16 * sim.Millisecond
	churnFastPeriod = 6 * sim.Millisecond

	churnDeadlineMult = 50 // SLO deadline, multiples of mean service time
	churnStallMult    = 20 // unavailability threshold, multiples of mean service
)

// churnRig is the flat cluster the churn and flat inference scenarios
// share: the MN on node 0 (reserved out of donation), the app server on
// node 1, every other node a donor, the fast control plane, and a chaos
// injector that rolls crashes through the donors at the fault rate.
type churnRig struct {
	cl        *core.Cluster
	donors    []fabric.NodeID // nearest-to-server first
	inj       *chaos.Injector
	period    sim.Dur // per-donor crash period; 0 = no faults
	chaosSeed uint64
}

// newChurnRig builds the rig on a nodes-node mesh (0 means 8) with the
// named sharing policy. spares > 0 pre-plugs that many lease-sized spare
// regions per donor. The caller closes the cluster and warms it up.
func newChurnRig(nodes int, policy string, fault FaultRate, seed, chaosSeed uint64, spares int) (*churnRig, error) {
	pol, ok := monitor.PolicyByName(policy)
	if !ok {
		return nil, fmt.Errorf("serving: unknown sharing policy %q (known: %v)", policy, monitor.PolicyNames())
	}
	topo, err := topoFor(nodes)
	if err != nil {
		return nil, err
	}
	if topo.N < 4 {
		return nil, fmt.Errorf("serving: churn rig needs >= 4 nodes (MN + server + two donors), got %d", topo.N)
	}
	rig := &churnRig{chaosSeed: chaosSeed}
	switch fault {
	case "", FaultNone:
	case FaultSlow:
		rig.period = churnSlowPeriod
	case FaultFast:
		rig.period = churnFastPeriod
	default:
		return nil, fmt.Errorf("serving: unknown fault rate %q", fault)
	}

	ccfg := core.Config{
		Topology:          &topo,
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: churnBeatInterval,
		HeartbeatTimeout:  churnBeatTimeout,
		SweepInterval:     churnSweep,
		Seed:              seed,
	}
	if spares > 0 {
		ccfg.SpareRegionBytes = churnLeaseBytes
		ccfg.SparesPerDonor = spares
	}
	rig.cl = core.NewCluster(ccfg)
	rig.cl.MN.Policy = pol
	// The MN must never be elected donor: its death model (and the
	// paper's un-replicated MN) is out of scope, and crashing a lease
	// donor must not take the control plane with it.
	mn := rig.cl.Node(0).MemMgr
	if err := mn.Reserve(mn.Idle()); err != nil {
		rig.cl.Close()
		return nil, fmt.Errorf("serving: reserving MN memory: %w", err)
	}

	// Donor population: every node but the MN (0) and the server (1),
	// ordered nearest-to-server first. Rolling churn walks this order, so
	// the early crashes hit the donors the distance-leaning policies
	// favor — the cell measures failover, not crashes of idle bystanders.
	for i := 2; i < topo.N; i++ {
		rig.donors = append(rig.donors, fabric.NodeID(i))
	}
	sort.Slice(rig.donors, func(i, j int) bool {
		hi, hj := rig.cl.Net.Topo.HopCount(1, rig.donors[i]), rig.cl.Net.Topo.HopCount(1, rig.donors[j])
		if hi != hj {
			return hi < hj
		}
		return rig.donors[i] < rig.donors[j]
	})
	rig.inj = chaos.New(rig.cl.Eng, rig.cl.Net, rig.cl.Agents)
	return rig, nil
}

// startChaos installs the rolling-crash schedule once calibration is
// done, so calibration is identical across the fault axis. It schedules
// enough cycles to cover the expected measured window (requests at
// rps); the instants derive from the rig's fixed chaos seed, so every
// shard of a cell sees the same fault history.
func (r *churnRig) startChaos(requests int, rps float64) error {
	if r.period == 0 {
		return nil
	}
	windowNS := float64(requests) / rps * 1e9
	cycles := int(windowNS/float64(r.period)) + 2
	n, err := r.inj.Install(chaos.Schedule{
		Seed:    r.chaosSeed,
		Actions: chaos.Rolling(r.donors, r.period, churnOutage, cycles),
	})
	if err != nil || n == 0 {
		return fmt.Errorf("serving: installing churn schedule (%d actions): %v", n, err)
	}
	return nil
}

// crashes reports the injected donor crashes.
func (r *churnRig) crashes() int64 { return r.inj.Stats.Get(string(chaos.NodeDown)) }

// churnRequest is one read of the leased working set.
type churnRequest struct {
	lease int
	off   uint64
}

// RunChurn executes one availability-under-churn scenario.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if err := checkLoad(cfg.Requests, cfg.Util); err != nil {
		return nil, err
	}
	spares := 0
	if cfg.SparePool {
		// One spare per lease the server holds: a crashed donor can back
		// every lease it carried, so no failover in the burst goes cold.
		spares = churnLeases
	}
	rig, err := newChurnRig(cfg.Nodes, cfg.Policy, cfg.Fault, churnClusterSeed, churnChaosSeed, spares)
	if err != nil {
		return nil, err
	}
	cl := rig.cl
	defer cl.Close()
	cl.RunFor(10 * sim.Millisecond) // populate the RRT
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	app := cl.Node(1)
	res := &ChurnResult{}
	err = runScenario(app, "churn", cfg.Throttle, func(pr *sim.Proc) error {
		ls, err := borrowWindows(pr, cl, churnLeases, func(int) core.Request {
			return core.NewRequest(core.Memory, app, churnLeaseBytes)
		})
		if err != nil {
			return fmt.Errorf("serving: churn leases: %w", err)
		}

		// Closed-loop calibration under healthy conditions: the mean
		// remote read sets the capacity the offered load is against.
		calRng := sim.NewRNG(churnCalSeed)
		t0 := pr.Now()
		for j := 0; j < churnCalibrate; j++ {
			l := ls[j%len(ls)]
			off := calRng.Uint64n(l.Size-churnReadBytes) &^ 63
			app.EP.CRMA.Fill(pr, l.WindowBase+off, churnReadBytes)
			pr.Sleep(churnThink)
		}
		res.ServiceNS = float64(pr.Now().Sub(t0)) / churnCalibrate
		res.OfferedRPS = cfg.Util * float64(servingWorkers) / res.ServiceNS * 1e9
		res.Deadline = sim.Dur(churnDeadlineMult * res.ServiceNS)
		stallThresh := sim.Dur(churnStallMult * res.ServiceNS)
		if err := rig.startChaos(cfg.Requests, res.OfferedRPS); err != nil {
			return err
		}

		offRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		var lastDone sim.Time
		completed := 0
		st, err := openLoop[churnRequest]{
			spawn: app.Run, name: "churn-worker", workers: servingWorkers,
			rps: res.OfferedRPS, seed: cfg.Seed, requests: cfg.Requests,
			next: func() churnRequest {
				li := offRng.Intn(len(ls))
				off := offRng.Uint64n(churnLeaseBytes-churnReadBytes) &^ 63
				return churnRequest{lease: li, off: off}
			},
			serve: func(wp *sim.Proc, req churnRequest) bool {
				l := ls[req.lease]
				app.EP.CRMA.Fill(wp, l.WindowBase+req.off, churnReadBytes)
				wp.Sleep(churnThink)
				return true
			},
			done: func(wp *sim.Proc, _ churnRequest, d sim.Dur, _ bool) {
				if cfg.Observe != nil {
					cfg.Observe(d)
				}
				if d > res.Deadline {
					res.Failed++
				}
				// Unavailability: completion-gap excess over the stall
				// threshold, across all workers.
				if completed > 0 {
					if gap := wp.Now().Sub(lastDone); gap > stallThresh {
						res.UnavailNS += int64(gap - stallThresh)
					}
				}
				lastDone = max(lastDone, wp.Now())
				completed++
			},
		}.run(pr)
		if err != nil {
			return err
		}
		res.Lat = st.lat
		res.AchievedRPS = float64(st.completed) / st.window
		res.GoodputRPS = float64(st.completed-res.Failed) / st.window
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Crashes = rig.crashes()
	res.Recoveries = cl.MN.Stats.Get("recover.replaced")
	if res.Recoveries > 0 {
		res.RecoverMeanNS = float64(cl.MN.Stats.Get("recover.ns")) / float64(res.Recoveries)
	}
	res.DeadAccesses = app.EP.CRMA.Stats.DeadAccesses
	return res, nil
}
