package monitor

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tenancy"
)

// A class-tagged device request runs the same preemption loop as
// memory: it evicts Preemptible units until its class budget admits it,
// however many that takes.
func TestDevicePreemptionEvictsUntilAdmitted(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.Admission = &tenancy.Config{
		PerClass: [tenancy.NumClasses]tenancy.Limits{
			tenancy.Preemptible: {ReserveFrac: 0.5},
			tenancy.Standard:    {ReserveFrac: 0.75},
		},
		Preempt: true,
	}
	c.agents[2].Devices[DevAccelerator] = 2
	c.agents[3].Devices[DevAccelerator] = 2
	c.eng.RunFor(1 * sim.Second)

	requester := c.nodes[1]
	var std *AllocResp
	requester.Run("devs", func(p *sim.Proc) {
		ask := func(class tenancy.Class) *AllocResp {
			return requester.EP.Call(p, 0, kindAlloc, 16,
				&AllocReq{Kind: DevAccelerator, Tenant: 1, Class: class}).(*AllocResp)
		}
		// Two Preemptible units fill that class's budget; two untagged
		// ones fill the pool.
		for _, class := range []tenancy.Class{tenancy.Preemptible, tenancy.Preemptible, tenancy.ClassNone, tenancy.ClassNone} {
			if r := ask(class); !r.OK {
				t.Errorf("%v holder: %s", class, r.Err)
			}
		}
		// Standard may use three of four units: with all four leased, it
		// needs both Preemptible units back.
		std = ask(tenancy.Standard)
	})
	c.eng.RunFor(5 * sim.Second)
	if std == nil || !std.OK {
		t.Fatalf("Standard under a full pool: %+v, want a preempted-in grant", std)
	}
	if got := c.mn.Stats.Get("preempt.device"); got != 2 {
		t.Errorf("preempt.device = %d, want 2", got)
	}
}
