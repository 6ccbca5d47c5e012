package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// This file is the monitor plane's half of the tenancy subsystem: the
// admission gate that onAlloc runs for class-tagged requests of either
// kind, and the preemption engine that revokes Preemptible-class leases
// when a higher class would otherwise be rejected. Policy itself
// (the per-class thresholds, the Decide function) lives in
// internal/tenancy; this file owns pressure measurement, the bounded
// queue wait, and the victim scan — the parts that need the MN's
// tables and its blocking RPC machinery.
//
// Every handler here runs in its own transport proc, so the queue wait
// may sleep without wedging the MN: other requests (and the frees and
// preemptions that relieve pressure) keep being serviced meanwhile.
// On a sub-MN the gate sees only its rack's pressure — each rack
// admits against its own pool, mirroring how the sharded plane splits
// every other table.

// pressure reports the pool's free units of k and its capacity: free
// sums the live RRT rows (idle bytes, or free units of a device class),
// capacity adds back the units leased out in live RAT rows of k (so
// capacity stays stable as grants move units from free to leased).
// Spare-pool carves are deliberately not added back — a region parked
// for failover is not admittable capacity.
func (m *Monitor) pressure(k Resource) (free, capacity uint64) {
	for _, r := range m.rrt {
		if r.Dead || !m.NodeAlive(r.Node) {
			continue
		}
		free += r.free(k)
	}
	capacity = free
	for _, a := range m.rat {
		if a.Kind != k || !m.NodeAlive(a.Donor) {
			continue
		}
		capacity += a.Size
	}
	return free, capacity
}

// decide evaluates size units of k for class against current pressure.
func (m *Monitor) decide(k Resource, class tenancy.Class, size uint64) (tenancy.Decision, uint64) {
	free, capacity := m.pressure(k)
	return m.Admission.Decide(class, size, free, capacity)
}

// admit runs the admission controller for one class-tagged request. It
// returns the granted size — the request's units when admitted in full,
// fewer when a memory window is degraded — or rejected=true. A Queue
// verdict parks the request right here, re-running the decision every
// poll tick until it admits or the class's MaxWait expires; expiry falls
// through to the preemption attempt (classes above Preemptible only)
// and then to rejection. A one-unit device request has nothing to
// shrink to, so Decide never degrades it: its verdict is admit,
// queue-then-admit, or reject.
func (m *Monitor) admit(p *sim.Proc, from fabric.NodeID, r *AllocReq) (granted uint64, rejected bool) {
	cfg := m.Admission
	want := r.units()
	dec, g := m.decide(r.Kind, r.Class, want)
	if dec == tenancy.Queue {
		m.Stats.Add("admit.queued", 1)
		var waited sim.Dur
		maxWait := cfg.PerClass[r.Class].MaxWait
		for dec == tenancy.Queue && waited < maxWait {
			p.Sleep(cfg.Poll())
			waited += cfg.Poll()
			dec, g = m.decide(r.Kind, r.Class, want)
		}
		if dec == tenancy.Admit || dec == tenancy.Degrade {
			m.Stats.Add("admit.queue_admits", 1)
		} else {
			// The wait is over and pressure never relented; from here the
			// request is treated exactly like an immediate rejection.
			dec = tenancy.Reject
		}
	}
	if dec == tenancy.Reject && r.Class > tenancy.Preemptible && cfg.Preempt {
		if m.preempt(p, from, r.Kind, r.Class, want) {
			dec, g = m.decide(r.Kind, r.Class, want)
		}
	}
	switch dec {
	case tenancy.Admit:
		return want, false
	case tenancy.Degrade:
		m.Stats.Add("admit.degraded", 1)
		return g, false
	}
	return 0, true
}

// preempt revokes Preemptible-class leases of k until a pending request
// of size units both clears its class budget and has a live donor with
// that many free units (for memory: a contiguous fit) — or the pool runs
// out of victims. Reports whether the caller should re-run the decision.
func (m *Monitor) preempt(p *sim.Proc, from fabric.NodeID, k Resource, class tenancy.Class, size uint64) bool {
	preempted := false
	for {
		if dec, _ := m.decide(k, class, size); dec == tenancy.Admit || dec == tenancy.Degrade {
			if m.donorFits(from, k, size) {
				return true
			}
		}
		victim := m.pickVictim(from, k, size)
		if victim == nil {
			if !preempted {
				m.Stats.Add("preempt.exhausted", 1)
			}
			return preempted
		}
		m.preemptLease(p, victim)
		preempted = true
	}
}

// donorFits reports whether some live donor other than the requester
// has size free units of k — the contiguity condition a budget-level
// Decide cannot see.
func (m *Monitor) donorFits(requester fabric.NodeID, k Resource, size uint64) bool {
	for _, r := range m.rrt {
		if r.Node == requester || r.Dead || !m.NodeAlive(r.Node) {
			continue
		}
		if r.free(k) >= size {
			return true
		}
	}
	return false
}

// pickVictim selects the next Preemptible lease of k to revoke: the
// lowest-RAT-id row on the first donor (node-id order) whose
// free-plus-preemptible units could reach a fit for the pending
// request. When no donor can ever fit it, the first victim in the same
// order still goes — its units lower the class's budget usage even if
// the fit is out of reach.
func (m *Monitor) pickVictim(requester fabric.NodeID, k Resource, size uint64) *Allocation {
	fallback := -1
	for _, id := range m.sortedDonorIDs() {
		r := m.rrt[id]
		if r.Dead || !m.NodeAlive(id) {
			continue
		}
		low := -1
		preemptible := uint64(0)
		for _, aid := range sortedKeys(m.rat) {
			a := m.rat[aid]
			if a.Donor != id || a.Kind != k || a.Class != tenancy.Preemptible {
				continue
			}
			preemptible += a.Size
			if low < 0 {
				low = aid
			}
		}
		if low < 0 {
			continue
		}
		if id != requester && r.free(k)+preemptible >= size {
			return m.rat[low]
		}
		if fallback < 0 {
			fallback = low
		}
	}
	if fallback >= 0 {
		return m.rat[fallback]
	}
	return nil
}

// sortedDonorIDs returns the RRT's node ids in ascending order — the
// deterministic scan order the victim walk shares with the recovery
// sweep.
func (m *Monitor) sortedDonorIDs() []fabric.NodeID {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// preemptLease revokes one Preemptible lease through the same machinery
// recovery uses for a donor that died with no candidate — except the
// donor here is alive, so the backing goes straight back to it: a memory
// region hot-returns instead of queueing as an orphan, a device unit is
// credited. A memory victim's agent also gets the standard revoke notice
// (window goes dead, parked accesses unwedge), parked for sweep retry if
// the delivery is lost; device clients follow the event stream, as on
// failover. Either way the row's lifecycle stream announces
// LeasePreempted so the victim can re-acquire with backoff.
func (m *Monitor) preemptLease(p *sim.Proc, a *Allocation) {
	delete(m.rat, a.ID)
	m.releaseBacking(p, a)
	if !a.Kind.Device() {
		rv := &revokeReq{AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size}
		recipientInc := m.incarnationOf(a.Recipient)
		if _, ok := m.EP.CallTimeout(p, a.Recipient, kindRevoke, 32, rv, m.GrantTimeout); !ok {
			m.pendingRevokes[a.ID] = &pendingNotice[revokeReq]{
				req: rv, recipient: a.Recipient, recipientInc: recipientInc,
			}
			m.Stats.Add("preempt.revoke_lost", 1)
		}
	}
	m.Stats.Add("preempt."+a.Kind.pool(), 1)
	m.emitLease(LeasePreempted, a, a.Donor)
	m.notifyDelegateMoved(p, a.Deleg, a.Donor, true)
}
