package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// The scale scenario takes the open-loop serving methodology to the
// multi-rack fabrics of fabric.RackSpine: an app server in rack 0
// serves requests whose working set lives in remote-memory windows
// leased through the sharded monitor plane, with CrossFrac of the
// windows deliberately delegated to other racks. Every cross-rack
// access shares the rack's few oversubscribed spine uplinks, so the
// sweep (node count × rack size × cross-rack fraction) measures what
// hierarchical sharing costs at the tail — the number the single-rack
// prototype cannot produce.

// Scale-scenario calibration constants; like the other scenarios they
// are fixed so the sweep varies only scale, mix, and load.
const (
	scaleClusterSeed = 2121
	scaleCalSeed     = 2122
	scaleTenantSeed  = 2123

	scaleWindows     = 8
	scaleWindowBytes = 2 << 20
	scaleReadBytes   = 2048
	scaleCalibration = 48
	scaleThink       = 2 * sim.Microsecond

	// Spine tier: 2 switches, 2 uplinks per rack, each uplink at half
	// the node link rate — a rack's nodes contend for 2×2.5 Gbps of
	// cross-rack bandwidth against 5 Gbps per intra-rack port.
	scaleSpines    = 2
	scaleUplinks   = 2
	scaleSpineGbps = 2.5

	// Background tenants: every rack runs RackNodes/scaleTenantDiv
	// tenants on its own nodes, each leasing one window (a CrossFrac
	// share of them cross-rack) and streaming RDMA bulk reads against it
	// for the scenario's duration. One 32 KiB transfer plus the think
	// gap sustains ~0.4 Gbps of demand per cross-rack tenant against the
	// rack's 2×2.5 Gbps of uplink capacity; tenant count scales with
	// rack size, so the rack-size axis sweeps spine utilization from
	// ~20% (8-node racks) toward saturation (32-node racks at high
	// CrossFrac) without tipping into open-ended collapse.
	scaleTenantDiv     = 4
	scaleTenantBulk    = 32 << 10
	scaleTenantThinkNS = 1_000_000
)

// scaleRackDims maps a supported per-rack node count onto mesh
// dimensions.
func scaleRackDims(rackNodes int) (x, y, z int, err error) {
	switch rackNodes {
	case 8:
		return 2, 2, 2, nil
	case 16:
		return 4, 2, 2, nil
	case 32:
		return 4, 4, 2, nil
	}
	return 0, 0, 0, fmt.Errorf("serving: unsupported rack size %d (want 8, 16, or 32)", rackNodes)
}

// newRackCluster validates cfg's rack/spine shape and builds the
// hierarchical cluster the scale and rack-scale inference scenarios
// serve on: cfg.Racks racks of cfg.RackNodes-node meshes behind the
// oversubscribed spine. The caller closes it and warms it up.
func newRackCluster(cfg Config, seed uint64) (*core.HierCluster, error) {
	if cfg.Racks < 2 {
		return nil, fmt.Errorf("serving: rack-scale workloads need >= 2 racks, got %d", cfg.Racks)
	}
	if cfg.CrossFrac < 0 || cfg.CrossFrac > 1 {
		return nil, fmt.Errorf("serving: CrossFrac %v out of [0, 1]", cfg.CrossFrac)
	}
	x, y, z, err := scaleRackDims(cfg.RackNodes)
	if err != nil {
		return nil, err
	}
	return core.NewHierCluster(core.HierConfig{
		Racks: cfg.Racks, RackX: x, RackY: y, RackZ: z,
		Spines: scaleSpines, Uplinks: scaleUplinks, SpineGbps: scaleSpineGbps,
		Seed: seed,
		// Long periods keep the steady-state event count tractable; the
		// one-second warm-up covers the staggered first beats that
		// populate the RRTs and the root's rack registry (and carry every
		// donor's device advertisement up through the rack beats).
		HeartbeatInterval: 30 * sim.Second,
		RackBeatInterval:  30 * sim.Second,
	}), nil
}

// rackScope pins a lease to another rack (cross) or to the requester's.
func rackScope(cross bool) core.Option {
	if cross {
		return core.WithScope(monitor.ScopeRemoteRack)
	}
	return core.WithScope(monitor.ScopeLocalRack)
}

// runScale executes the rack-scale serving scenario.
func runScale(cfg Config) (*Result, error) {
	cl, err := newRackCluster(cfg, scaleClusterSeed)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.RunFor(1 * sim.Second)
	cross := int(cfg.CrossFrac*scaleWindows + 0.5)

	app := cl.Node(2) // rack 0, clear of the sub-MN/uplink nodes 0 and 1
	res := &Result{}
	stop := false
	err = runScenario(app, "scale", nil, func(pr *sim.Proc) error {
		// Lease the working set: the cross-rack share is delegated by the
		// root MN (most-idle rack election spreads consecutive windows
		// over distinct racks), the rest is pinned rack-local.
		windows, err := borrowWindows(pr, cl, scaleWindows, func(w int) core.Request {
			return core.NewRequest(core.Memory, app, scaleWindowBytes, rackScope(w < cross))
		})
		if err != nil {
			return fmt.Errorf("serving: working-set windows: %w", err)
		}

		// Background tenants on every rack (nodes past the app's index,
		// clear of the sub-MN/uplink nodes): each leases one window — a
		// CrossFrac share of them in another rack — and will stream
		// reads through it from calibration to the end of the measured
		// phase, loading the spine in proportion to rack fullness.
		tenantsPerRack := cfg.RackNodes / scaleTenantDiv
		crossTenants := int(cfg.CrossFrac*float64(tenantsPerRack) + 0.5)
		tenantRng := sim.NewRNG(scaleTenantSeed)
		tenantNodes := make([]*node.Node, 0, cfg.Racks*tenantsPerRack)
		for r := 0; r < cfg.Racks; r++ {
			for i := 0; i < tenantsPerRack; i++ {
				tenantNodes = append(tenantNodes, cl.Node(int(cl.Hier.RackNodes(r)[3+i])))
			}
		}
		tenantLeases, err := borrowWindows(pr, cl, len(tenantNodes), func(k int) core.Request {
			return core.NewRequest(core.Memory, tenantNodes[k], scaleWindowBytes,
				rackScope(k%tenantsPerRack < crossTenants))
		})
		if err != nil {
			return fmt.Errorf("serving: tenant windows: %w", err)
		}
		for k, lease := range tenantLeases {
			lease, trng := lease, tenantRng.Fork()
			tn := tenantNodes[k]
			tn.Run("tenant", func(tp *sim.Proc) {
				for !stop {
					off := trng.Uint64n(lease.Size-scaleTenantBulk) &^ 63
					tn.EP.RDMA.Read(tp, lease.Donor(), lease.DonorBase+off, scaleTenantBulk)
					tp.Sleep(sim.Dur(trng.Intn(scaleTenantThinkNS)))
				}
			})
		}

		// Closed-loop calibration over the same window mix the measured
		// phase will draw from, under the same background pressure.
		calRng := sim.NewRNG(scaleCalSeed)
		t0 := pr.Now()
		for j := 0; j < scaleCalibration; j++ {
			lease := windows[j%scaleWindows]
			off := calRng.Uint64n(lease.Size-scaleReadBytes) &^ 63
			app.Mem.Read(pr, lease.WindowBase+off, scaleReadBytes)
			app.Mem.Think(pr, scaleThink)
		}
		res.ServiceNS = float64(pr.Now().Sub(t0)) / scaleCalibration
		res.OfferedRPS = cfg.Util * float64(servingWorkers) / res.ServiceNS * 1e9

		// The window is drawn at arrival, the offset within it at service.
		winRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		offRng := sim.NewRNG(cfg.Seed ^ 0xacce55)
		st, err := openLoop[int]{
			spawn: app.Run, name: "worker", workers: servingWorkers,
			arrivals: cfg.Arrivals, rps: res.OfferedRPS, seed: cfg.Seed, requests: cfg.Requests,
			next: func() int { return winRng.Intn(scaleWindows) },
			serve: func(wp *sim.Proc, w int) bool {
				lease := windows[w]
				off := offRng.Uint64n(lease.Size-scaleReadBytes) &^ 63
				app.Mem.Read(wp, lease.WindowBase+off, scaleReadBytes)
				app.Mem.Think(wp, scaleThink)
				return true
			},
		}.run(pr)
		stop = true
		if err != nil {
			return err
		}
		res.record(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
