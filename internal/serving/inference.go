package serving

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
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
)

// runInference serves the farm on either fabric shape. On a flat mesh
// (the churn rig) the MN on node 0 is excluded from donation, the app
// server is node 1, every other node donates accelerators and a NIC, and
// fault rates above none roll crashes through the donor farm once
// calibration ends. On a rack/spine fabric every rack runs a donor farm
// on its nodes past the app's index, the app server in rack 0 leases
// CrossFrac of its accelerators from other racks through the sharded
// monitor plane (root-elected donor rack, delegated grant), so every
// cross-leased request's input/output motion rides the oversubscribed
// spine uplinks. NIC leases stay rack-local there: egress bonding across
// the spine would serialize on the same uplinks the sweep is measuring.
func runInference(cfg Config) (*Result, error) {
	var (
		pl        core.Plane
		app       *node.Node
		rig       *churnRig
		cross     int
		farmNodes []*node.Node
		agents    []*monitor.Agent
		warm      sim.Dur
	)
	hier := cfg.Racks > 0
	if hier {
		if cfg.Fault != "" && cfg.Fault != FaultNone {
			return nil, fmt.Errorf("serving: inference fault injection runs on flat meshes only (got Racks=%d, Fault=%q)", cfg.Racks, cfg.Fault)
		}
		cl, err := newRackCluster(cfg, inferHierSeed)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		for r := 0; r < cfg.Racks; r++ {
			for _, id := range cl.Hier.RackNodes(r)[3:] {
				farmNodes = append(farmNodes, cl.Node(int(id)))
			}
		}
		pl, app, agents, warm = cl, cl.Node(int(cl.Hier.RackNodes(0)[2])), cl.Agents, 1*sim.Second
		cross = int(cfg.CrossFrac*inferAccelLeases + 0.5)
	} else {
		var err error
		rig, err = newChurnRig(cfg.Nodes, cfg.Policy, cfg.Fault, inferClusterSeed, inferChaosSeed, 0)
		if err != nil {
			return nil, err
		}
		defer rig.cl.Close()
		// Farms install in node-id order, not the rig's crash order.
		farmNodes = rig.cl.Nodes[2:]
		// Devices ride the beats that populate the RRT.
		pl, app, agents, warm = rig.cl, rig.cl.Node(1), rig.cl.Agents, 10*sim.Millisecond
	}
	for _, dn := range farmNodes {
		svc := inferFarm(dn, agents[dn.ID])
		defer svc.Shutdown()
	}
	app.Eng.RunFor(warm)

	res := &Result{}
	err := runScenario(app, "inference", nil, func(pr *sim.Proc) error {
		accLs, nicLs, err := inferLeases(pr, pl, app, hier, cross)
		if err != nil {
			return fmt.Errorf("serving: inference leases: %w", err)
		}
		slaves := []vnic.Slave{&vnic.LocalSlave{NIC: vnic.NewNIC(app.Eng, app.P, "eth0")}}
		for _, nl := range nicLs {
			slaves = append(slaves, nl)
		}
		bond := vnic.NewBond(app.P, slaves...)

		// Closed-loop calibration under healthy conditions: one request's
		// mean accelerator round trip plus egress sets the capacity the
		// offered load is expressed against.
		t0 := pr.Now()
		for j := 0; j < inferCalibrate; j++ {
			accLs[j%len(accLs)].Handle.Run(pr, "fft", inferTaskBytes)
			bond.Send(pr, inferRespBytes)
		}
		res.ServiceNS = float64(pr.Now().Sub(t0)) / inferCalibrate
		res.OfferedRPS = cfg.Util * float64(servingWorkers) / res.ServiceNS * 1e9
		if rig != nil {
			if err := rig.startChaos(cfg.Requests, res.OfferedRPS); err != nil {
				return err
			}
		}

		// Requests may stall through an outage while their lease fails
		// over and its chunks replay, but every one must complete.
		leaseRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		st, err := openLoop[int]{
			spawn: app.Run, name: "infer-worker", workers: servingWorkers,
			arrivals: cfg.Arrivals, rps: res.OfferedRPS, seed: cfg.Seed, requests: cfg.Requests,
			next: func() int { return leaseRng.Intn(len(accLs)) },
			serve: func(wp *sim.Proc, i int) bool {
				accLs[i].Handle.Run(wp, "fft", inferTaskBytes)
				bond.Send(wp, inferRespBytes)
				return true
			},
		}.run(pr)
		if err != nil {
			return err
		}
		res.record(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rig != nil {
		res.Crashes = rig.crashes()
		res.DevFailovers = rig.cl.MN.Stats.Get("recover.devices_replaced")
	}
	return res, nil
}

// inferFarm installs accelerator services on one donor node and
// advertises its shareable devices through the node's agent.
func inferFarm(dn *node.Node, ag *monitor.Agent) *accel.Service {
	kernel := accel.FFT{MBps: inferFFTMBps, Setup: inferFFTSetup}
	devs := make([]*accel.Accelerator, inferAccelsPerDonor)
	for j := range devs {
		devs[j] = accel.New(dn.Eng, dn.P, kernel)
	}
	svc := accel.Serve(dn, devs...)
	ag.Devices[monitor.DevAccelerator] = inferAccelsPerDonor
	ag.Devices[monitor.DevNIC] = 1
	return svc
}

// inferLeases acquires the farm's device working set — accelerator
// leases then NIC leases — as one all-or-nothing batch through the
// plane. On a rack/spine plane the first cross accelerator leases are
// forced onto other racks and the rest pinned rack-local, so CrossFrac
// is exact, not a policy accident; NIC leases are pinned rack-local.
func inferLeases(pr *sim.Proc, pl core.Plane, app *node.Node, hier bool, cross int) ([]*core.AccelLease, []*core.NICLease, error) {
	client := accel.NewClient(app)
	reqs := make([]core.Request, 0, inferAccelLeases+inferNICLeases)
	for i := 0; i < inferAccelLeases; i++ {
		opts := []core.Option{core.WithClient(client), core.WithRetry(borrowRetry)}
		if hier {
			opts = append(opts, rackScope(i < cross))
		}
		reqs = append(reqs, core.NewRequest(core.Accel, app, 0, opts...))
	}
	for i := 0; i < inferNICLeases; i++ {
		opts := []core.Option{core.WithRetry(borrowRetry)}
		if hier {
			opts = append(opts, rackScope(false))
		}
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
