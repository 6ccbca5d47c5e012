package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// This file is the recovery half of the resource-management runtime —
// the part the paper's prototype leaves on the table when it notes the
// MN "should be replicated" and the TST exists so faults can be routed
// around. Detection has two triggers: the sweep notices nodes whose
// heartbeats stopped (slow path, bounded by HeartbeatTimeout +
// SweepInterval), and onHeartbeat notices incarnation bumps (fast path:
// a node that crashed and rebooted inside the timeout still loses every
// donation it was serving). Recovery then walks the RAT: leases donated
// BY the failed node are re-placed onto survivors elected by the active
// Policy and the recipients told to retarget + replay in flight
// accesses; leases held BY the failed node are reclaimed to their
// donors; device grants from it fail over to survivors with free units
// (falling back to revocation when none exists — the client's next call
// then surfaces the loss).

// pendingNotice parks one undelivered recovery notice (relocate or
// revoke) for a recipient, remembering the recipient's incarnation when
// it was queued: a rebooted recipient has a fresh RAMT and its old
// windows (and parked processes) died with it, so the notice is moot.
type pendingNotice[T any] struct {
	req          *T
	recipient    fabric.NodeID
	recipientInc int64
}

// StartRecovery launches the MN's failure-detection and lease-failover
// loop. The loop keeps the event queue non-empty forever, so programs
// that drive the engine with Run (rather than RunFor / step-until-done)
// must StopRecovery first.
func (m *Monitor) StartRecovery() {
	if m.recoveryOn {
		return
	}
	m.recoveryOn = true
	interval := m.SweepInterval
	if interval <= 0 {
		interval = m.HeartbeatTimeout / 2
		if interval <= 0 {
			interval = sim.Second
		}
	}
	m.EP.Eng.Go("mn-recovery", func(p *sim.Proc) {
		for m.recoveryOn {
			p.Sleep(interval)
			m.sweep(p)
		}
	})
}

// StopRecovery ends the recovery loop after the current sweep.
func (m *Monitor) StopRecovery() { m.recoveryOn = false }

// sweep runs one detection pass. Iteration is in node-id order so runs
// are deterministic regardless of map layout.
func (m *Monitor) sweep(p *sim.Proc) {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := m.rrt[id]
		switch {
		case r.needsRecovery:
			// Fast path: the node told us it rebooted.
			r.needsRecovery = false
			m.Stats.Add("recover.reboot_recoveries", 1)
			m.recoverNode(p, id, true)
			m.notifyNodeDown(p, id)
		case !r.Dead && r.Beats > 0 && !m.NodeAlive(id):
			r.Dead = true
			m.Stats.Add("recover.deaths", 1)
			m.recoverNode(p, id, false)
			m.notifyNodeDown(p, id)
		case !r.Dead && m.NodeAlive(id) && len(m.orphans[id]) > 0:
			// Hot-returns can be owed to a node that was never declared
			// dead (e.g. a free whose return was lost to a link flap);
			// settle them as soon as the node is reachable again.
			m.flushOrphans(p, id)
		}
	}
	m.retryPendingNotices(p)
	if m.HasUpstream {
		m.retryRackFrees(p)
	}
	// Spare-pool upkeep (no-ops unless EnableSparePool ran): drop pool
	// entries whose donor died or rebooted, then replace consumed or
	// pruned spares asynchronously.
	m.pruneSpares()
	m.topUpSpares()
}

// retryPendingNotices redelivers relocate/revoke notices whose first
// attempt was lost, in allocation-id order.
func (m *Monitor) retryPendingNotices(p *sim.Proc) {
	for _, id := range sortedKeys(m.pendingRelocates) {
		n := m.pendingRelocates[id]
		a, live := m.rat[id]
		if !live || a.Donor != n.req.NewDonor {
			// Freed, reclaimed, or superseded by a newer failover.
			delete(m.pendingRelocates, id)
			continue
		}
		if m.incarnationOf(n.recipient) != n.recipientInc {
			// The recipient rebooted: its windows are gone; its own
			// reboot recovery reclaims the row.
			delete(m.pendingRelocates, id)
			continue
		}
		if !m.recipientReachable(n.recipient) {
			continue // unreachable; keep for a later sweep
		}
		raw, ok := m.EP.CallTimeout(p, n.recipient, kindRelocate, 64, n.req, m.GrantTimeout)
		if !ok {
			m.Stats.Add("recover.relocate_retry_lost", 1)
			continue
		}
		delete(m.pendingRelocates, id)
		if !raw.(*relocateResp).OK {
			// The window was released while the notice was parked: drop
			// the row and reclaim the replacement region.
			delete(m.rat, id)
			if r, ok := m.rrt[a.Donor]; ok {
				m.undoReplacement(p, r, a, a.DonorBase)
				r.IdleBytes += a.Size
			}
			m.Stats.Add("recover.raced_free", 1)
			continue
		}
		m.Stats.Add("recover.relocate_retried", 1)
	}
	for _, id := range sortedKeys(m.pendingRevokes) {
		n := m.pendingRevokes[id]
		if m.incarnationOf(n.recipient) != n.recipientInc {
			delete(m.pendingRevokes, id)
			continue
		}
		if !m.recipientReachable(n.recipient) {
			continue
		}
		if _, ok := m.EP.CallTimeout(p, n.recipient, kindRevoke, 32, n.req, m.GrantTimeout); !ok {
			m.Stats.Add("recover.revoke_retry_lost", 1)
			continue
		}
		delete(m.pendingRevokes, id)
		m.Stats.Add("recover.revoke_retried", 1)
	}
}

// recipientReachable reports whether a recovery notice to recipient is
// worth attempting. Rack-local recipients are gated on their heartbeat
// freshness; recipients outside this sub-MN's rack (delegated leases)
// never appear in the RRT, so delivery is simply attempted — their own
// rack's sub-MN owns their liveness, and an undeliverable notice just
// stays parked for the next sweep.
func (m *Monitor) recipientReachable(recipient fabric.NodeID) bool {
	if _, local := m.rrt[recipient]; !local {
		return true
	}
	return m.NodeAlive(recipient)
}

// notifyNodeDown reports a locally-detected node death (or reboot) to
// the root MN so delegated leases the node held as a recipient are
// reclaimed across the delegation boundary. No-op on flat clusters.
func (m *Monitor) notifyNodeDown(p *sim.Proc, id fabric.NodeID) {
	if !m.HasUpstream {
		return
	}
	if _, ok := m.EP.CallTimeout(p, m.Upstream, kindNodeDown, 32,
		&nodeDownReq{Rack: m.Rack, Node: id}, m.GrantTimeout); !ok {
		m.Stats.Add("recover.nodedown_lost", 1)
	}
}

// sortedKeys returns a map's int keys ascending (deterministic sweeps).
func sortedKeys[T any](mp map[int]*T) []int {
	ids := make([]int, 0, len(mp))
	for id := range mp {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// recoverNode revokes and re-places every allocation involving the
// failed node. rebooted distinguishes a node that came back with fresh
// memory (nothing to return to it later) from one presumed dead (a
// false positive still owes hot-returns if it reappears).
func (m *Monitor) recoverNode(p *sim.Proc, id fabric.NodeID, rebooted bool) {
	ids := make([]int, 0, len(m.rat))
	for aid := range m.rat {
		ids = append(ids, aid)
	}
	sort.Ints(ids)
	for _, aid := range ids {
		a, ok := m.rat[aid]
		if !ok {
			continue // removed by an earlier step of this same sweep
		}
		switch {
		case a.Recipient == id:
			m.reclaimLease(p, a, rebooted)
		case a.Donor == id && a.Kind == Memory:
			m.failoverLease(p, a, rebooted)
		case a.Donor == id:
			m.failoverDevice(p, a)
		}
	}
}

// incarnationOf reads a node's current reboot count from the RRT.
func (m *Monitor) incarnationOf(id fabric.NodeID) int64 {
	if r, ok := m.rrt[id]; ok {
		return r.Incarnation
	}
	return 0
}

// queueOrphan parks a hot-return owed to a donor that could not be
// reached — unless the donor has rebooted since inc was read, in which
// case the region died with its old life and there is nothing to
// return. (Recovery's blocking RPCs take milliseconds; a donor can
// crash AND come back fresh inside one of them.)
func (m *Monitor) queueOrphan(donor fabric.NodeID, inc int64, ret *hotReturnReq) {
	if m.incarnationOf(donor) != inc {
		m.Stats.Add("recover.orphans_obsolete", 1)
		return
	}
	m.orphans[donor] = append(m.orphans[donor], ret)
}

// reclaimLease handles an allocation whose recipient died: the donor is
// healthy, so its region returns to service.
func (m *Monitor) reclaimLease(p *sim.Proc, a *Allocation, _ bool) {
	delete(m.rat, a.ID)
	m.emitLease(LeaseRevoked, a, a.Donor)
	if a.Kind.Device() {
		m.creditDevice(a)
		m.Stats.Add("recover.devices_reclaimed", 1)
		return
	}
	inc := m.incarnationOf(a.Donor)
	ret := &hotReturnReq{
		Recipient: a.Recipient, RecipientBase: a.RecipientBase,
		Base: a.DonorBase, Size: a.Size,
	}
	if _, ok := m.EP.CallTimeout(p, a.Donor, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
		m.queueOrphan(a.Donor, inc, ret)
	}
	if r, ok := m.rrt[a.Donor]; ok {
		r.IdleBytes += a.Size
	}
	m.Stats.Add("recover.reclaimed", 1)
}

// failoverLease re-places a lease whose donor died: elect a new donor
// with the active policy, hot-remove a fresh region there, swing the RAT
// row, and tell the recipient's agent to retarget the window and replay
// what was in flight. The region's contents are not migrated — nothing
// survives the donor to migrate from — so the model fits re-initializable
// uses (caches, scratch, cold tiers), which is what the serving
// scenarios lease remote memory for.
func (m *Monitor) failoverLease(p *sim.Proc, a *Allocation, rebooted bool) {
	t0 := m.EP.Eng.Now()
	oldDonor, oldBase := a.Donor, a.DonorBase
	oldInc := m.incarnationOf(oldDonor)
	for _, cand := range m.donorCandidates(a.Recipient, nil) {
		if cand.Node == oldDonor || !m.NodeAlive(cand.Node) {
			continue
		}
		// A donor whose RRT idle account ran dry can still back the lease
		// from a pre-plugged spare (the spare's bytes were debited from the
		// account when they were carved).
		if cand.IdleBytes < a.Size && !m.hasSpare(cand.Node, a.Size) {
			continue
		}
		base, viaSpare, ok := m.replacementRegion(p, cand, a)
		if !ok {
			continue
		}
		// The region acquisition blocked (2 ms for a hot-remove, a round
		// trip for a spare attach); the lease can have been freed (or
		// reclaimed by another recovery step) in the meantime. If the row
		// is gone, the fresh replacement region must go straight back or
		// it leaks untracked on the new donor.
		if _, live := m.rat[a.ID]; !live {
			m.undoReplacement(p, cand, a, base)
			m.Stats.Add("recover.raced_free", 1)
			return
		}
		rel := &relocateReq{
			AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size,
			OldDonor: oldDonor, NewDonor: cand.Node, NewDonorBase: base,
		}
		recipientInc := m.incarnationOf(a.Recipient)
		raw, ok := m.EP.CallTimeout(p, a.Recipient, kindRelocate, 64, rel, m.GrantTimeout)
		switch {
		case !ok:
			// The notice was lost — the recipient may be mid-crash, or a
			// link flap ate the RPC. Committing the failover with the
			// recipient still aimed at the dead donor would park its
			// accesses forever, so the sweep retries until delivery, a
			// newer failover supersedes it, or the recipient's own death
			// recovery reclaims the row.
			m.pendingRelocates[a.ID] = &pendingNotice[relocateReq]{
				req: rel, recipient: a.Recipient, recipientInc: recipientInc,
			}
			m.Stats.Add("recover.relocate_lost", 1)
		case !raw.(*relocateResp).OK:
			// The recipient no longer has the window (released while the
			// relocate was in flight): drop the row and take the
			// replacement region back.
			delete(m.rat, a.ID)
			m.undoReplacement(p, cand, a, base)
			m.Stats.Add("recover.raced_free", 1)
			return
		default:
			// Delivered: any notice parked by an older failover of this
			// row is superseded.
			delete(m.pendingRelocates, a.ID)
		}
		a.Donor, a.DonorBase = cand.Node, base
		a.At = m.EP.Eng.Now()
		if !viaSpare {
			// A spare's bytes were already debited at carve time.
			cand.IdleBytes -= a.Size
		}
		if !rebooted {
			m.queueOrphan(oldDonor, oldInc, &hotReturnReq{
				Recipient: a.Recipient, RecipientBase: a.RecipientBase,
				Base: oldBase, Size: a.Size,
			})
		}
		m.Stats.Add("recover.replaced", 1)
		m.Stats.Add("recover.ns", int64(m.EP.Eng.Now().Sub(t0)))
		m.emitLease(LeaseFailedOver, a, oldDonor)
		m.notifyDelegateMoved(p, a.Deleg, a.Donor, false)
		return
	}
	// The candidate walk blocked; if the lease was freed meanwhile there
	// is nothing left to revoke (and onFree owns the old donor's orphan
	// return).
	if _, live := m.rat[a.ID]; !live {
		m.Stats.Add("recover.raced_free", 1)
		return
	}
	// No surviving donor can back the window: revoke outright so the
	// recipient does not park forever on a region that no longer exists.
	delete(m.rat, a.ID)
	if !rebooted {
		m.queueOrphan(oldDonor, oldInc, &hotReturnReq{
			Recipient: a.Recipient, RecipientBase: a.RecipientBase,
			Base: oldBase, Size: a.Size,
		})
	}
	rv := &revokeReq{AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size}
	recipientInc := m.incarnationOf(a.Recipient)
	if _, ok := m.EP.CallTimeout(p, a.Recipient, kindRevoke, 32, rv, m.GrantTimeout); !ok {
		// Same retry contract as relocates: an undelivered revoke leaves
		// the recipient parked on a window that no longer exists.
		m.pendingRevokes[a.ID] = &pendingNotice[revokeReq]{
			req: rv, recipient: a.Recipient, recipientInc: recipientInc,
		}
		m.Stats.Add("recover.revoke_lost", 1)
	}
	m.Stats.Add("recover.revoked", 1)
	m.emitLease(LeaseRevoked, a, oldDonor)
	m.notifyDelegateMoved(p, a.Deleg, a.Donor, true)
}

// failoverDevice re-places a device lease whose donor died: elect a live
// donor with a free unit of the same kind, swing the RAT row, and
// announce the failover so the recipient's lease observer retargets its
// session and replays what was in flight (device clients own their
// replay — there is no agent-managed window to relocate). With no
// candidate the row is dropped and the lease revoked: the recipient's
// next call surfaces the loss.
func (m *Monitor) failoverDevice(p *sim.Proc, a *Allocation) {
	oldDonor := a.Donor
	for _, cand := range m.donorCandidates(a.Recipient, nil) {
		if cand.Node == oldDonor || cand.Devices[a.Kind] <= 0 || !m.NodeAlive(cand.Node) {
			continue
		}
		cand.Devices[a.Kind]--
		a.Donor = cand.Node
		a.At = m.EP.Eng.Now()
		m.Stats.Add("recover.devices_replaced", 1)
		m.emitLease(LeaseFailedOver, a, oldDonor)
		m.notifyDelegateMoved(p, a.Deleg, a.Donor, false)
		return
	}
	delete(m.rat, a.ID)
	m.Stats.Add("recover.devices_dropped", 1)
	m.emitLease(LeaseRevoked, a, oldDonor)
	m.notifyDelegateMoved(p, a.Deleg, a.Donor, true)
}

// notifyDelegateMoved tells the root MN that a delegated lease's backing
// changed (new donor after a rack-local failover) or is gone (revoked),
// keeping the root's delegation table truthful. No-op for non-delegated
// rows and on flat clusters.
func (m *Monitor) notifyDelegateMoved(p *sim.Proc, deleg int, donor fabric.NodeID, gone bool) {
	if deleg == 0 || !m.HasUpstream {
		return
	}
	if _, ok := m.EP.CallTimeout(p, m.Upstream, kindDelegateMoved, 32,
		&delegateMovedReq{DelegID: deleg, Donor: donor, Gone: gone}, m.GrantTimeout); !ok {
		m.Stats.Add("recover.delegatemoved_lost", 1)
	}
}

// undoReplacement returns a replacement region that lost its race with a
// concurrent free back to the donor it was just carved from.
func (m *Monitor) undoReplacement(p *sim.Proc, cand *Registration, a *Allocation, base uint64) {
	inc := m.incarnationOf(cand.Node)
	ret := &hotReturnReq{
		Recipient: a.Recipient, RecipientBase: a.RecipientBase,
		Base: base, Size: a.Size,
	}
	if _, ok := m.EP.CallTimeout(p, cand.Node, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
		m.queueOrphan(cand.Node, inc, ret)
	}
}

// flushOrphans settles hot-returns owed to a donor that reappeared
// without having rebooted: the MN declared it dead and moved its leases,
// but its regions are still hot-removed and exported.
func (m *Monitor) flushOrphans(p *sim.Proc, id fabric.NodeID) {
	rets := m.orphans[id]
	if len(rets) == 0 {
		return
	}
	delete(m.orphans, id)
	for _, ret := range rets {
		if _, ok := m.EP.CallTimeout(p, id, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
			// Unreachable again; requeue for the next reappearance.
			m.orphans[id] = append(m.orphans[id], ret)
			continue
		}
		m.Stats.Add("recover.orphan_returns", 1)
	}
}
