package serving

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/vnic"
)

// The inference scenario is the device-plane member of the serving
// family: an inference farm whose compute is leased remote accelerators
// (an FFT-style engine stands in for the model kernel) and whose result
// egress runs over a bond of leased remote NICs. Open-loop arrivals fan
// requests out across the accelerator leases; each request ships its
// input to the leased device over RDMA, runs the kernel, reads the
// result back, and pushes the response bytes through the NIC bond. On
// flat meshes a churn-style rolling-crash schedule walks the donor farm,
// so the cell measures device-lease failover — the MN retargets each
// orphaned lease onto a surviving donor and the accelerator handle
// replays its in-flight chunks there — in serving terms: the latency
// tail and zero lost completions. On rack/spine fabrics a CrossFrac
// share of the accelerator leases is delegated to other racks by the
// sharded monitor plane, putting every cross-rack request's data motion
// on the oversubscribed spine.

// Scenario-internal calibration constants (fixed, like the other
// scenarios': the sweep varies only load, scale, cross-rack mix, and
// fault rate).
const (
	inferClusterSeed = 2131
	inferChaosSeed   = 2132
	inferCalSeed     = 2133
	inferHierSeed    = 2134

	// The leased farm: each donor hosts inferAccelsPerDonor accelerators
	// and advertises one shareable NIC; the app leases inferAccelLeases
	// devices plus inferNICLeases NICs in one all-or-nothing batch.
	// Leasing fewer units than each donor advertises leaves failover
	// headroom: a crashed donor's lease always has a live candidate with
	// a free device.
	inferAccelLeases    = 2
	inferNICLeases      = 2
	inferAccelsPerDonor = 2

	// The stand-in kernel and per-request data motion: one task ships
	// inferTaskBytes of input (chunk-pipelined over RDMA), computes at
	// inferFFTMBps, returns the same volume, and the response summary
	// egresses over the NIC bond.
	inferFFTMBps   = 360.0
	inferFFTSetup  = 10 * sim.Microsecond
	inferTaskBytes = 128 << 10
	inferRespBytes = 4 << 10
	inferCalibrate = 32

	// Flat cells run the churn scenario's fast control plane so failure
	// detection resolves within a rolling outage.
	inferBeatInterval = 100 * sim.Microsecond
	inferBeatTimeout  = 500 * sim.Microsecond
	inferSweep        = 250 * sim.Microsecond

	// Rolling-churn timing over the donor farm (flat cells only).
	inferOutage     = 4 * sim.Millisecond
	inferSlowPeriod = 16 * sim.Millisecond
	inferFastPeriod = 6 * sim.Millisecond
)

// runInference dispatches the inference farm onto the configured fabric
// shape: flat mesh (with optional donor churn) or rack/spine hierarchy
// (with cross-rack device delegation).
func runInference(cfg Config) (*Result, error) {
	if cfg.Racks > 0 {
		if cfg.Fault != "" && cfg.Fault != FaultNone {
			return nil, fmt.Errorf("serving: inference fault injection runs on flat meshes only (got Racks=%d, Fault=%q)", cfg.Racks, cfg.Fault)
		}
		return runInferenceHier(cfg)
	}
	return runInferenceFlat(cfg)
}

// inferFarm installs accelerator services on one donor node and
// advertises its shareable devices through the node's agent.
func inferFarm(eng *sim.Engine, p *sim.Params, dn *node.Node, ag *monitor.Agent) *accel.Service {
	kernel := accel.FFT{MBps: inferFFTMBps, Setup: inferFFTSetup}
	devs := make([]*accel.Accelerator, inferAccelsPerDonor)
	for j := range devs {
		devs[j] = accel.New(eng, p, kernel)
	}
	svc := accel.Serve(dn, devs...)
	ag.Devices[monitor.DevAccelerator] = inferAccelsPerDonor
	ag.Devices[monitor.DevNIC] = 1
	return svc
}

// inferLeases acquires the farm's device working set — accelerator
// leases then NIC leases — as one all-or-nothing batch through the
// plane. scope shapes accelerator lease i (NIC leases are always
// granted wherever the policy sends them on flat planes, rack-local on
// hierarchical ones).
func inferLeases(pr *sim.Proc, pl core.Plane, app *node.Node, client *accel.Client,
	accScope func(i int) []core.Option, nicScope []core.Option) ([]*core.AccelLease, []*core.NICLease, error) {
	reqs := make([]core.Request, 0, inferAccelLeases+inferNICLeases)
	for i := 0; i < inferAccelLeases; i++ {
		opts := append([]core.Option{core.WithClient(client), core.WithRetry(borrowRetry)}, accScope(i)...)
		reqs = append(reqs, core.NewRequest(core.Accel, app, 0, opts...))
	}
	for i := 0; i < inferNICLeases; i++ {
		opts := append([]core.Option{core.WithRetry(borrowRetry)}, nicScope...)
		reqs = append(reqs, core.NewRequest(core.NIC, app, 0, opts...))
	}
	leases, err := pl.AcquireAll(pr, reqs...)
	if err != nil {
		return nil, nil, err
	}
	accLs := make([]*core.AccelLease, inferAccelLeases)
	nicLs := make([]*core.NICLease, inferNICLeases)
	for i := 0; i < inferAccelLeases; i++ {
		accLs[i] = leases[i].(*core.AccelLease)
	}
	for i := 0; i < inferNICLeases; i++ {
		nicLs[i] = leases[inferAccelLeases+i].(*core.NICLease)
	}
	return accLs, nicLs, nil
}

// inferServe runs calibration plus the measured open-loop phase on an
// already-leased farm; onCalibrated fires between the two (the flat
// scenario installs its chaos schedule there, so calibration is
// identical across the fault axis).
func inferServe(pr *sim.Proc, eng *sim.Engine, app *node.Node, cfg Config, res *Result,
	accLs []*core.AccelLease, bond *vnic.Bond, onCalibrated func() error) error {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}

	// Closed-loop calibration under healthy conditions: one request's
	// mean accelerator round trip plus egress sets the capacity the
	// offered load is expressed against.
	t0 := pr.Now()
	for j := 0; j < inferCalibrate; j++ {
		accLs[j%len(accLs)].Handle.Run(pr, "fft", inferTaskBytes)
		bond.Send(pr, inferRespBytes)
	}
	res.ServiceNS = float64(pr.Now().Sub(t0)) / inferCalibrate
	res.OfferedRPS = cfg.Util * float64(workers) / res.ServiceNS * 1e9
	if err := onCalibrated(); err != nil {
		return err
	}

	reqQ := sim.NewQueue[request](eng)
	shards := make([]*sim.LatencyHist, workers)
	var lastDone sim.Time
	completed := 0
	grp := sim.NewGroup(eng)
	for w := 0; w < workers; w++ {
		w := w
		shards[w] = &sim.LatencyHist{}
		grp.Add(1)
		app.Run(fmt.Sprintf("infer-worker-%d", w), func(wp *sim.Proc) {
			defer grp.Done()
			for {
				req := reqQ.Pop(wp)
				if req.close {
					return
				}
				accLs[req.key].Handle.Run(wp, "fft", inferTaskBytes)
				bond.Send(wp, inferRespBytes)
				shards[w].AddDur(wp.Now().Sub(req.arrived))
				if wp.Now() > lastDone {
					lastDone = wp.Now()
				}
				completed++
			}
		})
	}

	arr := newSampler(cfg.Arrivals, res.OfferedRPS, sim.NewRNG(cfg.Seed))
	leaseRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
	start := pr.Now()
	for r := 0; r < cfg.Requests; r++ {
		pr.Sleep(arr.Next())
		reqQ.Push(pr, request{arrived: pr.Now(), key: leaseRng.Intn(len(accLs))})
	}
	for w := 0; w < workers; w++ {
		reqQ.Push(pr, request{close: true})
	}
	grp.Wait(pr)

	// Zero-loss accounting: requests may stall through an outage while
	// their lease fails over and its chunks replay, but every one of
	// them must complete.
	if completed != cfg.Requests {
		return fmt.Errorf("serving: inference lost requests: %d of %d completed", completed, cfg.Requests)
	}
	res.AchievedRPS = float64(completed) / lastDone.Sub(start).Seconds()
	res.MaxQueue = reqQ.MaxDepth()
	res.Lat = &sim.LatencyHist{}
	for _, s := range shards {
		res.Lat.Merge(s)
	}
	return nil
}

// runInferenceFlat serves the farm on a single mesh: MN on node 0
// (excluded from donation), the app server on node 1, every other node
// donating accelerators and a NIC. Fault rates above none roll crashes
// through the donor farm once calibration ends.
func runInferenceFlat(cfg Config) (*Result, error) {
	pol, ok := monitor.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("serving: unknown sharing policy %q (known: %v)", cfg.Policy, monitor.PolicyNames())
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 8
	}
	if nodes < 4 {
		return nil, fmt.Errorf("serving: inference needs >= 4 nodes (MN + server + two donors), got %d", nodes)
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
		period = inferSlowPeriod
	case FaultFast:
		period = inferFastPeriod
	default:
		return nil, fmt.Errorf("serving: unknown fault rate %q", cfg.Fault)
	}

	cl := core.NewCluster(core.Config{
		Topology:          &topo,
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: inferBeatInterval,
		HeartbeatTimeout:  inferBeatTimeout,
		SweepInterval:     inferSweep,
		Seed:              inferClusterSeed,
	})
	defer cl.Close()
	cl.MN.Policy = pol
	// The MN must never be elected donor (matching the churn scenario):
	// crashing a device donor must not take the control plane with it.
	if err := cl.Node(0).MemMgr.Reserve(cl.Node(0).MemMgr.Idle()); err != nil {
		return nil, fmt.Errorf("serving: reserving MN memory: %w", err)
	}
	for i := 2; i < nodes; i++ {
		svc := inferFarm(cl.Eng, cl.P, cl.Node(i), cl.Agents[i])
		defer svc.Shutdown()
	}
	cl.RunFor(10 * sim.Millisecond) // populate the RRT (devices ride the beats)

	// Donor population for the rolling schedule, nearest-to-server first
	// — the early crashes hit the donors distance-leaning policies lease
	// from, so the cell measures failover, not crashes of idle bystanders.
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
	res := &Result{}
	var runErr error
	done := app.Run("serving-inference", func(pr *sim.Proc) {
		client := accel.NewClient(app)
		accLs, nicLs, err := inferLeases(pr, cl, app, client,
			func(int) []core.Option { return nil }, nil)
		if err != nil {
			runErr = fmt.Errorf("serving: inference leases: %w", err)
			return
		}
		local := vnic.NewNIC(cl.Eng, cl.P, "eth0")
		slaves := []vnic.Slave{&vnic.LocalSlave{NIC: local}}
		for _, nl := range nicLs {
			slaves = append(slaves, nl)
		}
		bond := vnic.NewBond(cl.P, slaves...)

		runErr = inferServe(pr, cl.Eng, app, cfg, res, accLs, bond, func() error {
			if period == 0 {
				return nil
			}
			// Chaos starts only after calibration; instants derive from a
			// fixed internal seed so every shard of a cell sees the same
			// fault history, covering the expected measured window.
			windowNS := float64(cfg.Requests) / res.OfferedRPS * 1e9
			cycles := int(windowNS/float64(period)) + 2
			n, err := inj.Install(chaos.Schedule{
				Seed:    inferChaosSeed,
				Actions: chaos.Rolling(donors, period, inferOutage, cycles),
			})
			if err != nil || n == 0 {
				return fmt.Errorf("serving: installing inference churn schedule (%d actions): %v", n, err)
			}
			return nil
		})
	})
	// Agents, recovery, and pending chaos actions keep the event queue
	// alive forever; step only until the scenario completes.
	for !done.Done() && cl.Eng.Step() {
	}
	if runErr != nil {
		return nil, runErr
	}
	if !done.Done() {
		return nil, fmt.Errorf("serving: inference scenario deadlocked (%d live procs)", cl.Eng.LiveProcs())
	}
	res.Crashes = inj.Stats.Get(string(chaos.NodeDown))
	res.DevFailovers = cl.MN.Stats.Get("recover.devices_replaced")
	return res, nil
}

// runInferenceHier serves the farm on a rack/spine fabric: the app
// server in rack 0 leases CrossFrac of its accelerators from other
// racks through the sharded monitor plane (root-elected donor rack,
// delegated grant), so every cross-leased request's input/output motion
// rides the oversubscribed spine uplinks. NIC leases stay rack-local —
// egress bonding across the spine would serialize on the same uplinks
// the sweep is measuring.
func runInferenceHier(cfg Config) (*Result, error) {
	if cfg.Racks < 2 {
		return nil, fmt.Errorf("serving: hierarchical inference needs >= 2 racks, got %d", cfg.Racks)
	}
	if cfg.CrossFrac < 0 || cfg.CrossFrac > 1 {
		return nil, fmt.Errorf("serving: CrossFrac %v out of [0, 1]", cfg.CrossFrac)
	}
	x, y, z, err := scaleRackDims(cfg.RackNodes)
	if err != nil {
		return nil, err
	}
	cross := int(cfg.CrossFrac*inferAccelLeases + 0.5)

	cl := core.NewHierCluster(core.HierConfig{
		Racks: cfg.Racks, RackX: x, RackY: y, RackZ: z,
		Spines: scaleSpines, Uplinks: scaleUplinks, SpineGbps: scaleSpineGbps,
		Seed: inferHierSeed,
		// Long periods keep the steady-state event count tractable; the
		// warm-up covers the staggered first beats that carry every
		// donor's device advertisement up through the rack beats.
		HeartbeatInterval: 30 * sim.Second,
		RackBeatInterval:  30 * sim.Second,
	})
	defer cl.Close()
	// Every rack runs a donor farm on its nodes past the app's index
	// (clear of the sub-MN/uplink nodes 0 and 1), so remote racks have
	// devices for the root to delegate.
	for r := 0; r < cfg.Racks; r++ {
		ids := cl.Hier.RackNodes(r)
		for _, id := range ids[3:] {
			svc := inferFarm(cl.Eng, cl.P, cl.Node(int(id)), cl.Agents[id])
			defer svc.Shutdown()
		}
	}
	cl.RunFor(1 * sim.Second)

	app := cl.Node(int(cl.Hier.RackNodes(0)[2]))
	res := &Result{}
	var runErr error
	done := app.Run("serving-inference", func(pr *sim.Proc) {
		client := accel.NewClient(app)
		// The first cross leases are forced onto other racks; the rest
		// are pinned rack-local, so CrossFrac is exact, not a policy
		// accident.
		accLs, nicLs, err := inferLeases(pr, cl, app, client,
			func(i int) []core.Option {
				if i < cross {
					return []core.Option{core.WithScope(monitor.ScopeRemoteRack)}
				}
				return []core.Option{core.WithScope(monitor.ScopeLocalRack)}
			},
			[]core.Option{core.WithScope(monitor.ScopeLocalRack)})
		if err != nil {
			runErr = fmt.Errorf("serving: inference leases: %w", err)
			return
		}
		local := vnic.NewNIC(cl.Eng, cl.P, "eth0")
		slaves := []vnic.Slave{&vnic.LocalSlave{NIC: local}}
		for _, nl := range nicLs {
			slaves = append(slaves, nl)
		}
		bond := vnic.NewBond(cl.P, slaves...)

		runErr = inferServe(pr, cl.Eng, app, cfg, res, accLs, bond, func() error { return nil })
	})
	for !done.Done() && cl.Eng.Step() {
	}
	if runErr != nil {
		return nil, runErr
	}
	if !done.Done() {
		return nil, fmt.Errorf("serving: inference scenario deadlocked (%d live procs)", cl.Eng.LiveProcs())
	}
	return res, nil
}
