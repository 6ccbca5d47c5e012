package tenancy_test

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// Admission-ordering contract, exercised end to end on both monitor
// planes and for both resource kinds the MN gates (memory bytes and
// accelerator units): under a saturated pool the MN must treat the
// classes in strict lattice order — Preemptible is rejected outright,
// Standard queues and then preempts its way in, Latency preempts
// immediately without ever queueing — and a queued request whose caller
// set a shorter WithTimeout surfaces ErrTimeout instead of hanging.

// orderRig abstracts the plane under test: a flat cluster's MN or a
// hier cluster's rack-0 sub-MN.
type orderRig struct {
	name  string
	plane core.Plane
	app   *node.Node
	stats *sim.Scoreboard
	eng   *sim.Engine
	// opts are appended to every request (the hier rig pins
	// ScopeLocalRack so escalation cannot sidestep the rack's admission).
	opts []core.Option
	// memUnits is the memory pool size in orderLease leases. Every rig
	// also advertises orderAccels accelerator units.
	memUnits int
	close    func()
}

// orderKind is one resource the ordering contract runs over: how to
// request one lease of it, the MN counter its preemptions land in, and
// its pool size in leases on a rig.
type orderKind struct {
	name       string
	request    func(rig *orderRig) core.Request
	preemptKey string
	units      func(rig *orderRig) int
}

// orderAccels is the accelerator pool every rig advertises: two units on
// each of two donors outside the MN and the app node.
const orderAccels = 4

var orderKinds = []orderKind{
	{
		name: "memory",
		request: func(rig *orderRig) core.Request {
			return core.NewRequest(core.Memory, rig.app, orderLease, rig.opts...)
		},
		preemptKey: "preempt.memory",
		units:      func(rig *orderRig) int { return rig.memUnits },
	},
	{
		name: "accelerator",
		request: func(rig *orderRig) core.Request {
			return core.NewRequest(core.Accel, rig.app, 0,
				append([]core.Option{core.WithClient(accel.NewClient(rig.app))}, rig.opts...)...)
		},
		preemptKey: "preempt.device",
		units:      func(*orderRig) int { return orderAccels },
	},
}

// advertiseAccels gives two donors two accelerator units each.
func advertiseAccels(agents ...*monitor.Agent) {
	for _, ag := range agents {
		ag.Devices[monitor.DevAccelerator] = orderAccels / len(agents)
	}
}

// orderPolicy is the pinned admission policy the ordering table runs
// under: no degradation (sizes stay exact), Standard the only class
// allowed to wait.
func orderPolicy() *tenancy.Config {
	return &tenancy.Config{
		PerClass: [tenancy.NumClasses]tenancy.Limits{
			tenancy.Preemptible: {ReserveFrac: 0.5, SLOMult: 16},
			tenancy.Standard:    {ReserveFrac: 0.75, MaxWait: sim.Millisecond, SLOMult: 8},
			tenancy.Latency:     {ReserveFrac: 1.0, SLOMult: 4},
		},
		Preempt: true,
	}
}

const (
	orderNodeMem = uint64(32 << 20)
	orderLease   = uint64(8 << 20)
)

func flatRig(t *testing.T) *orderRig {
	t.Helper()
	topo := fabric.Mesh3D(2, 2, 2)
	cl := core.NewCluster(core.Config{
		Topology:     &topo,
		NodeMemBytes: orderNodeMem,
		StartAgents:  true,
		Admission:    orderPolicy(),
	})
	for _, i := range []int{0, 1} { // MN and app out of donor candidacy
		if err := cl.Node(i).MemMgr.Reserve(cl.Node(i).MemMgr.Idle()); err != nil {
			t.Fatalf("reserving node %d: %v", i, err)
		}
	}
	advertiseAccels(cl.Agents[2], cl.Agents[3])
	cl.RunFor(10 * sim.Millisecond)
	return &orderRig{
		name: "flat", plane: cl, app: cl.Node(1), stats: &cl.MN.Stats,
		eng: cl.Eng, memUnits: 24, close: cl.Close,
	}
}

func hierRig(t *testing.T) *orderRig {
	t.Helper()
	cl := core.NewHierCluster(core.HierConfig{
		Racks: 2, RackX: 2, RackY: 2, RackZ: 1,
		NodeMemBytes:      orderNodeMem,
		HeartbeatInterval: 100 * sim.Microsecond,
		Admission:         orderPolicy(),
	})
	rack := cl.Hier.RackNodes(0)
	sub := cl.SubNode(0)
	app := cl.Nodes[rack[1]]
	for _, id := range []fabric.NodeID{sub, app.ID} {
		if err := cl.Nodes[id].MemMgr.Reserve(cl.Nodes[id].MemMgr.Idle()); err != nil {
			t.Fatalf("reserving node %v: %v", id, err)
		}
	}
	advertiseAccels(cl.Agents[rack[2]], cl.Agents[rack[3]])
	cl.RunFor(10 * sim.Millisecond)
	return &orderRig{
		name: "hier", plane: cl, app: app, stats: &cl.Subs[0].Stats,
		eng:      cl.Eng,
		opts:     []core.Option{core.WithScope(monitor.ScopeLocalRack)},
		memUnits: 8, close: cl.Close,
	}
}

func TestAdmissionClassOrdering(t *testing.T) {
	rigs := []struct {
		name string
		mk   func(*testing.T) *orderRig
	}{{"flat", flatRig}, {"hier", hierRig}}
	for _, rc := range rigs {
		t.Run(rc.name, func(t *testing.T) {
			for _, kind := range orderKinds {
				t.Run(kind.name, func(t *testing.T) {
					rig := rc.mk(t)
					defer rig.close()
					runClassOrdering(t, rig, kind)
				})
			}
		})
	}
}

// runClassOrdering drives the ordering contract for one resource kind
// on one rig.
func runClassOrdering(t *testing.T, rig *orderRig, kind orderKind) {
	units := kind.units(rig)
	// Preemptible's budget is half the pool (orderPolicy).
	preemptibleUnits := units / 2
	acquire := func(p *sim.Proc, opts ...core.Option) (core.Lease, error) {
		return rig.plane.Acquire(p, kind.request(rig).With(opts...))
	}
	done := rig.app.Run("admission-order", func(p *sim.Proc) {
		// Saturate the Preemptible budget, then fill the rest of the
		// pool with untagged leases admission never sees.
		holders := 0
		for {
			_, err := acquire(p, core.WithTenant(uint64(100+holders), tenancy.Preemptible))
			if err != nil {
				if !errors.Is(err, core.ErrAdmissionRejected) {
					t.Errorf("holder %d: got %v, want ErrAdmissionRejected at budget", holders, err)
				}
				break
			}
			holders++
		}
		if holders != preemptibleUnits {
			t.Errorf("Preemptible budget admitted %d leases, want %d", holders, preemptibleUnits)
			return
		}
		fill := func() []core.Lease {
			var got []core.Lease
			for {
				l, err := acquire(p)
				if err != nil {
					if !errors.Is(err, core.ErrUnavailable) {
						t.Errorf("untagged fill: got %v, want ErrUnavailable when the pool drains", err)
					}
					return got
				}
				got = append(got, l)
			}
		}
		untagged := fill()
		if len(untagged) != units-preemptibleUnits {
			t.Errorf("untagged fill took %d leases, want %d", len(untagged), units-preemptibleUnits)
			return
		}
		// Hand one unit back: the pool now sits exactly at Standard's
		// budget, still over it for one more lease.
		untagged[len(untagged)-1].Release(p)

		// Lowest class first: rejected outright, and never allowed to
		// preempt its own class.
		preempts := func() int64 { return rig.stats.Get(kind.preemptKey) }
		queued := func() int64 { return rig.stats.Get("admit.queued") }
		if _, err := acquire(p, core.WithTenant(1, tenancy.Preemptible)); !errors.Is(err, core.ErrAdmissionRejected) {
			t.Errorf("Preemptible under pressure: got %v, want ErrAdmissionRejected", err)
		}
		if got := preempts(); got != 0 {
			t.Errorf("Preemptible rejection triggered %d preemptions, want 0", got)
		}

		// Standard: queues for its bounded wait, then preempts in.
		q0 := queued()
		if _, err := acquire(p, core.WithTenant(2, tenancy.Standard)); err != nil {
			t.Errorf("Standard under pressure: got %v, want a preempted-in grant", err)
			return
		}
		stdPreempts := preempts()
		if stdPreempts == 0 {
			t.Error("Standard grant preempted nothing; it should have evicted Preemptible leases")
		}
		if queued() != q0+1 {
			t.Errorf("Standard grant queued %d times, want exactly 1", queued()-q0)
		}

		// Latency: the full pool is re-filled, then the top class goes
		// straight to preemption — no queue wait at all.
		fill()
		q1 := queued()
		if _, err := acquire(p, core.WithTenant(3, tenancy.Latency)); err != nil {
			t.Errorf("Latency under pressure: got %v, want a preempted-in grant", err)
			return
		}
		if preempts() <= stdPreempts {
			t.Error("Latency grant preempted nothing; it should have evicted a Preemptible lease")
		}
		if queued() != q1 {
			t.Errorf("Latency grant queued (%d -> %d); the top class must never wait", q1, queued())
		}

		// A queued request bounded by a shorter client-side timeout
		// surfaces ErrTimeout promptly instead of hanging out the
		// MN-side wait.
		t0 := p.Now()
		_, err := acquire(p, core.WithTenant(4, tenancy.Standard), core.WithTimeout(200*sim.Microsecond))
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("queued request with short timeout: got %v, want ErrTimeout", err)
		}
		if waited := p.Now().Sub(t0); waited >= sim.Millisecond {
			t.Errorf("timed-out request waited %v, want under the 1ms queue bound", waited)
		}
	})
	for !done.Done() && rig.eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("admission-order scenario deadlocked")
	}
}
