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
	// Requests is the number of measured open-loop requests.
	Requests int
	// Workers is the app-server dispatch concurrency (default 2).
	Workers int
	// Leases is how many remote-memory windows the server spreads its
	// working set over (default 2; each is placed independently by the
	// policy, so they can land on different donors).
	Leases int
	// Policy names the MN sharing policy ("" = distance-first).
	Policy string
	// Fault selects the churn intensity (default FaultNone).
	Fault FaultRate
	// Arrivals shapes the open-loop arrival process. The zero value is
	// the historical Poisson stream (byte-identical results); set
	// FlashCrowd() to drive churn through hard bursts instead.
	Arrivals ArrivalSpec
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
	// latency as it completes (in addition to the shard histograms).
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

	churnLeaseBytes = uint64(8 << 20)
	churnReadBytes  = 2048
	churnThink      = 20 * sim.Microsecond
	churnCalibrate  = 48

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

// churnRequest is one queued unit of offered load.
type churnRequest struct {
	arrived sim.Time
	lease   int
	off     uint64
	close   bool
}

// RunChurn executes one availability-under-churn scenario.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serving: Requests must be positive, got %d", cfg.Requests)
	}
	if cfg.Util <= 0 {
		return nil, fmt.Errorf("serving: Util must be positive, got %v", cfg.Util)
	}
	pol, ok := monitor.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("serving: unknown sharing policy %q (known: %v)", cfg.Policy, monitor.PolicyNames())
	}
	if err := cfg.Arrivals.validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 8
	}
	if nodes < 4 {
		return nil, fmt.Errorf("serving: churn needs >= 4 nodes (MN + server + two donors), got %d", nodes)
	}
	topo, err := topoFor(nodes)
	if err != nil {
		return nil, err
	}
	var period sim.Dur
	switch cfg.Fault {
	case "", FaultNone:
		period = 0
	case FaultSlow:
		period = churnSlowPeriod
	case FaultFast:
		period = churnFastPeriod
	default:
		return nil, fmt.Errorf("serving: unknown fault rate %q", cfg.Fault)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	leases := cfg.Leases
	if leases <= 0 {
		leases = 2
	}

	ccfg := core.Config{
		Topology:          &topo,
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: churnBeatInterval,
		HeartbeatTimeout:  churnBeatTimeout,
		SweepInterval:     churnSweep,
		Seed:              churnClusterSeed,
	}
	if cfg.SparePool {
		// One spare per lease the server holds: a crashed donor can back
		// every lease it carried, so no failover in the burst goes cold.
		ccfg.SpareRegionBytes = churnLeaseBytes
		ccfg.SparesPerDonor = leases
	}
	cl := core.NewCluster(ccfg)
	defer cl.Close()
	cl.MN.Policy = pol
	// The MN must never be elected donor: its death model (and the
	// paper's un-replicated MN) is out of scope, and crashing a lease
	// donor must not take the control plane with it.
	if err := cl.Node(0).MemMgr.Reserve(cl.Node(0).MemMgr.Idle()); err != nil {
		return nil, fmt.Errorf("serving: reserving MN memory: %w", err)
	}
	cl.RunFor(10 * sim.Millisecond) // populate the RRT
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	// Donor population: every node but the MN (0) and the server (1),
	// ordered nearest-to-server first. Rolling churn walks this order, so
	// the early crashes hit the donors the distance-leaning policies
	// favor — the cell measures failover, not crashes of idle bystanders.
	var donors []fabric.NodeID
	for i := 2; i < nodes; i++ {
		donors = append(donors, fabric.NodeID(i))
	}
	sort.Slice(donors, func(i, j int) bool {
		hi, hj := cl.Net.Topo.HopCount(1, donors[i]), cl.Net.Topo.HopCount(1, donors[j])
		if hi != hj {
			return hi < hj
		}
		return donors[i] < donors[j]
	})
	inj := chaos.New(cl.Eng, cl.Net, cl.Agents)

	app := cl.Node(1)
	res := &ChurnResult{}
	var runErr error
	done := app.Run("serving-churn", func(pr *sim.Proc) {
		ls, err := borrowWindows(pr, cl, leases, func(int) core.Request {
			return core.NewRequest(core.Memory, app, churnLeaseBytes)
		})
		if err != nil {
			runErr = fmt.Errorf("serving: churn leases: %w", err)
			return
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
		res.OfferedRPS = cfg.Util * float64(workers) / res.ServiceNS * 1e9
		res.Deadline = sim.Dur(churnDeadlineMult * res.ServiceNS)
		stallThresh := sim.Dur(churnStallMult * res.ServiceNS)

		// Chaos starts only now, so calibration is identical across the
		// fault-rate axis. The expected measured window is
		// Requests/OfferedRPS; schedule enough rolling cycles to cover it
		// (instants are deterministic in the internal seed — shards share
		// one fault history).
		if period > 0 {
			windowNS := float64(cfg.Requests) / res.OfferedRPS * 1e9
			cycles := int(windowNS/float64(period)) + 2
			n, err := inj.Install(chaos.Schedule{
				Seed:    churnChaosSeed,
				Actions: chaos.Rolling(donors, period, churnOutage, cycles),
			})
			if err != nil || n == 0 {
				runErr = fmt.Errorf("serving: installing churn schedule (%d actions): %v", n, err)
				return
			}
		}

		reqQ := sim.NewQueue[churnRequest](cl.Eng)
		shards := make([]*sim.LatencyHist, workers)
		var lastDone sim.Time
		completed := 0
		grp := sim.NewGroup(cl.Eng)
		for w := 0; w < workers; w++ {
			w := w
			shards[w] = &sim.LatencyHist{}
			grp.Add(1)
			app.Run(fmt.Sprintf("churn-worker-%d", w), func(wp *sim.Proc) {
				defer grp.Done()
				for {
					req := reqQ.Pop(wp)
					if req.close {
						return
					}
					l := ls[req.lease]
					app.EP.CRMA.Fill(wp, l.WindowBase+req.off, churnReadBytes)
					wp.Sleep(churnThink)
					d := wp.Now().Sub(req.arrived)
					shards[w].AddDur(d)
					if cfg.Observe != nil {
						cfg.Observe(d)
					}
					if d > res.Deadline {
						res.Failed++
					}
					// Unavailability: completion-gap excess over the stall
					// threshold. lastDone is shared across workers; the
					// engine's determinism makes the accounting exact.
					if completed > 0 {
						if gap := wp.Now().Sub(lastDone); gap > stallThresh {
							res.UnavailNS += int64(gap - stallThresh)
						}
					}
					if wp.Now() > lastDone {
						lastDone = wp.Now()
					}
					completed++
				}
			})
		}

		arr := newSampler(cfg.Arrivals, res.OfferedRPS, sim.NewRNG(cfg.Seed))
		offRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		start := pr.Now()
		for r := 0; r < cfg.Requests; r++ {
			pr.Sleep(arr.Next())
			li := offRng.Intn(len(ls))
			off := offRng.Uint64n(churnLeaseBytes-churnReadBytes) &^ 63
			reqQ.Push(pr, churnRequest{arrived: pr.Now(), lease: li, off: off})
		}
		for w := 0; w < workers; w++ {
			reqQ.Push(pr, churnRequest{close: true})
		}
		grp.Wait(pr)

		// Zero-loss accounting: open-loop arrivals may stall through an
		// outage, but every one of them must complete.
		if completed != cfg.Requests {
			runErr = fmt.Errorf("serving: churn lost requests: %d of %d completed", completed, cfg.Requests)
			return
		}
		window := lastDone.Sub(start).Seconds()
		res.AchievedRPS = float64(completed) / window
		res.GoodputRPS = float64(completed-res.Failed) / window
		res.Lat = &sim.LatencyHist{}
		for _, s := range shards {
			res.Lat.Merge(s)
		}
	})
	// Step only until the scenario finishes: agents, the recovery loop,
	// and pending chaos actions would keep the queue alive forever.
	if cfg.Throttle == nil {
		for !done.Done() && cl.Eng.Step() {
		}
	} else {
		for !done.Done() && cl.Eng.Step() {
			cfg.Throttle()
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if !done.Done() {
		return nil, fmt.Errorf("serving: churn scenario deadlocked (%d live procs)", cl.Eng.LiveProcs())
	}
	res.Crashes = inj.Stats.Get(string(chaos.NodeDown))
	res.Recoveries = cl.MN.Stats.Get("recover.replaced")
	if res.Recoveries > 0 {
		res.RecoverMeanNS = float64(cl.MN.Stats.Get("recover.ns")) / float64(res.Recoveries)
	}
	res.DeadAccesses = cl.Node(1).EP.CRMA.Stats.DeadAccesses
	return res, nil
}
