package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Live lease migration: the telemetry plane tells the MN which leases
// sit behind saturated links *while they are being served*; the
// migration loop moves the hottest one per scan to a donor behind a
// cooler path, reusing the exact retarget-and-replay machinery recovery
// already exercises. Like failover, migration does not copy region
// contents — the serving scenarios lease remote memory for
// re-initializable state (caches, scratch, cold tiers), and the
// recipient-side CRMA replay guarantees no in-flight access is lost.

// Leases carry a traffic class (AllocReq.Latency): bulk by default,
// latency-sensitive on request. The scan serves the classes
// asymmetrically. A hot bulk lease is itself moved somewhere cooler — a
// max-utilization objective. A hot latency lease is never moved (the
// retarget pause is exactly what the class forbids); instead the scan
// relieves its bottleneck link by moving the largest bulk lease off it,
// even when that makes some bulk path hotter than the one relieved —
// bulk paths tolerate up to twice the hot threshold. Without the class
// asymmetry the scan could never isolate a latency flow from N equal
// bulk flows: pairing two bulk flows raises the max, so a pure max-util
// objective always refuses.

// defaults for the migration thresholds (Monitor.MigrateUtil /
// MigrateMargin override them when positive).
const (
	defaultMigrateUtil   = 0.75
	defaultMigrateMargin = 0.20
)

// pathRelief is migrateLease's relieve-a-latency-path mode: the
// saturated bottleneck being vacated, the victim's estimated
// contribution to it, and the utilization a bulk destination path may
// reach after absorbing that contribution.
type pathRelief struct {
	link    [2]fabric.NodeID
	share   float64
	ceiling float64
}

// StartMigration launches the MN's hot-lease scan at the given period
// (0 selects 500 µs). The loop keeps the event queue non-empty forever,
// so drive the engine with RunFor or step-until-done, not Run.
// Without telemetry-enabled agents the loop never sees a hot path and
// does nothing.
func (m *Monitor) StartMigration(interval sim.Dur) {
	if m.migrationOn {
		return
	}
	m.migrationOn = true
	if interval <= 0 {
		interval = 500 * sim.Microsecond
	}
	m.EP.Eng.Go("mn-migrate", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			m.migrateScan(p)
		}
	})
}

// migrateScan finds the lease whose recipient→donor path has the
// hottest windowed bottleneck above the threshold and tries to relieve
// it: latency-sensitive leases first (by vacating a bulk sharer), then
// bulk leases (by moving the hot lease itself). One move per scan
// bounds churn; the next scan re-evaluates with fresh telemetry.
func (m *Monitor) migrateScan(p *sim.Proc) {
	v := m.view()
	if !v.HasTelemetry {
		return
	}
	threshold := m.MigrateUtil
	if threshold <= 0 {
		threshold = defaultMigrateUtil
	}
	ids := make([]int, 0, len(m.rat))
	for id := range m.rat {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var hotLat, hotBulk *Allocation
	latUtil, bulkUtil := 0.0, 0.0
	for _, id := range ids {
		a := m.rat[id]
		if a.Kind != Memory {
			continue
		}
		u, known := v.PathUtil(a.Recipient, a.Donor)
		if !known || u < threshold {
			continue
		}
		switch {
		case a.Latency && u > latUtil:
			hotLat, latUtil = a, u
		case !a.Latency && u > bulkUtil:
			hotBulk, bulkUtil = a, u
		}
	}
	switch {
	case hotLat != nil:
		m.Stats.Add("migrate.hot_detected", 1)
		m.relieveLatencyPath(p, v, hotLat, latUtil, ids)
	case hotBulk != nil:
		m.Stats.Add("migrate.hot_detected", 1)
		m.migrateLease(p, v, hotBulk, bulkUtil, nil)
	}
}

// relieveLatencyPath vacates the bottleneck link of a hot
// latency-sensitive lease: the largest bulk lease crossing that link
// (biggest relocatable share of its traffic) is moved to a path that
// avoids every latency lease, tolerating bulk destinations up to twice
// the hot threshold.
func (m *Monitor) relieveLatencyPath(p *sim.Proc, v *View, hot *Allocation, hotUtil float64, ids []int) {
	link, _, ok := v.PathBottleneck(hot.Recipient, hot.Donor)
	if !ok {
		m.Stats.Add("migrate.no_candidate", 1)
		return
	}
	var victim *Allocation
	sharers := 0
	for _, id := range ids {
		a := m.rat[id]
		if a.Kind != Memory || !v.PathCrosses(a.Recipient, a.Donor, link) {
			continue
		}
		sharers++
		if a.Latency {
			continue
		}
		if victim == nil || a.Size > victim.Size {
			victim = a
		}
	}
	if victim == nil {
		// Only latency leases cross the link; there is nothing movable.
		m.Stats.Add("migrate.no_candidate", 1)
		return
	}
	threshold := m.MigrateUtil
	if threshold <= 0 {
		threshold = defaultMigrateUtil
	}
	relief := &pathRelief{
		link:    link,
		share:   hotUtil / float64(sharers),
		ceiling: 2 * threshold,
	}
	m.migrateLease(p, v, victim, hotUtil, relief)
}

// migrateLease moves one (always bulk-class) lease to a donor behind a
// better path: meaningfully cooler in the default mode, or — when
// relief is non-nil — any path that avoids the latency leases and
// stays under the bulk ceiling after absorbing the victim's share. The
// shape mirrors failoverLease with one inversion: the old donor is
// alive, so any mid-flight failure aborts back to the old placement
// (which still works) instead of parking retries, and on success the
// old region is hot-returned to its donor — off the serving critical
// path, since the recipient is already retargeted.
func (m *Monitor) migrateLease(p *sim.Proc, v *View, a *Allocation, curUtil float64, relief *pathRelief) bool {
	t0 := m.EP.Eng.Now()
	oldDonor, oldBase := a.Donor, a.DonorBase
	margin := m.MigrateMargin
	if margin <= 0 {
		margin = defaultMigrateMargin
	}
	// Links any latency-sensitive lease depends on: no migration may
	// land bulk traffic there, whichever mode chose the victim.
	latLinks := make(map[[2]fabric.NodeID]bool)
	for _, la := range m.rat {
		if la.Kind != Memory || !la.Latency {
			continue
		}
		for _, l := range v.PathLinks(la.Recipient, la.Donor) {
			latLinks[l] = true
		}
	}
	for _, cand := range m.donorCandidates(a.Recipient, nil) {
		if cand.Node == oldDonor || !m.NodeAlive(cand.Node) {
			continue
		}
		if cand.IdleBytes < a.Size && !m.hasSpare(cand.Node, a.Size) {
			continue
		}
		if crossesAny(v, a.Recipient, cand.Node, latLinks) {
			continue
		}
		cu, known := v.PathUtil(a.Recipient, cand.Node)
		if relief != nil {
			// Relieving a latency path: the destination only has to absorb
			// the victim's share without itself turning pathological.
			if known && cu+relief.share > relief.ceiling {
				continue
			}
		} else if known && cu > curUtil-margin {
			// Only move somewhere meaningfully cooler; a never-sampled path
			// reads as idle (nothing hot has crossed it this window).
			continue
		}
		base, viaSpare, ok := m.replacementRegion(p, cand, a)
		if !ok {
			continue
		}
		if _, live := m.rat[a.ID]; !live {
			// Freed while the region was being acquired: the free already
			// returned the old region; only the new one needs undoing.
			m.undoReplacement(p, cand, a, base)
			m.Stats.Add("migrate.raced_free", 1)
			return false
		}
		rel := &relocateReq{
			AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size,
			OldDonor: oldDonor, NewDonor: cand.Node, NewDonorBase: base,
		}
		raw, ok := m.EP.CallTimeout(p, a.Recipient, kindRelocate, 64, rel, m.GrantTimeout)
		switch {
		case !ok:
			// Delivery unknown — unlike failover the old placement still
			// works, so abort rather than park a retry: reclaim the new
			// region and let a later scan try again. (If the relocate did
			// land, the recipient aims at the new donor whose export we
			// just tore down; its next access faults the window dead, the
			// same contract as a revoke — accept that narrow race rather
			// than double-commit.)
			m.undoReplacement(p, cand, a, base)
			m.Stats.Add("migrate.aborted", 1)
			return false
		case !raw.(*relocateResp).OK:
			// The window vanished at the recipient (freed concurrently; the
			// MN-side free may still be queued behind this proc). Drop the
			// row, reclaim the new region, and return the old one to its
			// live donor — exactly what the queued free would have done.
			delete(m.rat, a.ID)
			m.undoReplacement(p, cand, a, base)
			m.returnRegion(p, &Allocation{
				ID: a.ID, Kind: a.Kind, Donor: oldDonor, Recipient: a.Recipient,
				DonorBase: oldBase, RecipientBase: a.RecipientBase, Size: a.Size,
			})
			m.Stats.Add("migrate.raced_free", 1)
			return false
		}
		a.Donor, a.DonorBase = cand.Node, base
		a.At = m.EP.Eng.Now()
		if !viaSpare {
			cand.IdleBytes -= a.Size
		}
		// Hot-return the old region to its (live) old donor. The ~2 ms
		// hot-add runs on the donor, off the serving path.
		ret := &hotReturnReq{
			Recipient: a.Recipient, RecipientBase: a.RecipientBase,
			Base: oldBase, Size: a.Size,
		}
		oldInc := m.incarnationOf(oldDonor)
		if _, ok := m.EP.CallTimeout(p, oldDonor, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
			m.queueOrphan(oldDonor, oldInc, ret)
		}
		if r, ok := m.rrt[oldDonor]; ok {
			r.IdleBytes += a.Size
		}
		m.Stats.Add("migrate.moved", 1)
		m.Stats.Add("migrate.ns", int64(m.EP.Eng.Now().Sub(t0)))
		m.emitLease(LeaseMigrated, a, oldDonor)
		m.notifyDelegateMoved(p, a.Deleg, a.Donor, false)
		return true
	}
	m.Stats.Add("migrate.no_candidate", 1)
	return false
}

// crossesAny reports whether the a→b path traverses any link in links.
func crossesAny(v *View, a, b fabric.NodeID, links map[[2]fabric.NodeID]bool) bool {
	if len(links) == 0 {
		return false
	}
	for _, l := range v.PathLinks(a, b) {
		if links[l] {
			return true
		}
	}
	return false
}
