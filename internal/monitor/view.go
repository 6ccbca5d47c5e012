package monitor

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// View is the telemetry snapshot a placement decision sees: the
// topology, each donor's live-allocation load, and — when agents are
// heartbeating windowed link samples — the recent utilization of every
// reported link. Policies receive a View instead of reaching into the
// Monitor so the placement inputs are explicit and testable; the MN
// builds one per donor walk, and the migration loop builds one per
// scan.
type View struct {
	Topo fabric.Topology
	Now  sim.Time

	// Load counts live allocations per donor — the congestion proxy the
	// pre-telemetry traffic-aware policy used, still the only signal
	// available when telemetry is off.
	Load map[fabric.NodeID]int

	// HasTelemetry reports whether any windowed link utilization has
	// been heartbeated; when false PathUtil always reports unknown and
	// telemetry-capable policies fall back to their load-only behavior.
	HasTelemetry bool

	linkUtil map[[2]fabric.NodeID]float64
	commits  map[[2]fabric.NodeID]int
}

// view assembles the current telemetry snapshot from the RRT/RAT/TST.
func (m *Monitor) view() *View {
	v := &View{
		Topo: m.Topo,
		Now:  m.EP.Eng.Now(),
		Load: make(map[fabric.NodeID]int, len(m.rrt)),
	}
	for _, a := range m.rat {
		v.Load[a.Donor]++
	}
	for _, a := range m.rat {
		if a.Kind != Memory {
			continue
		}
		for _, l := range v.PathLinks(a.Recipient, a.Donor) {
			if v.commits == nil {
				v.commits = make(map[[2]fabric.NodeID]int)
			}
			v.commits[l]++
		}
	}
	for key, s := range m.tst {
		if !s.HasUtil {
			continue
		}
		if v.linkUtil == nil {
			v.linkUtil = make(map[[2]fabric.NodeID]float64)
		}
		v.HasTelemetry = true
		v.linkUtil[key] = s.Util
	}
	return v
}

// View exposes the MN's current telemetry snapshot (tests and external
// placement tooling).
func (m *Monitor) View() *View { return m.view() }

// HopCount reports the shortest-path hop count between a and b.
func (v *View) HopCount(a, b fabric.NodeID) int { return v.Topo.HopCount(a, b) }

// LinkUtil reports the last windowed utilization heartbeated for the
// link a<->b; ok is false when no agent has sampled it.
func (v *View) LinkUtil(a, b fabric.NodeID) (float64, bool) {
	u, ok := v.linkUtil[linkKey(a, b)]
	return u, ok
}

// PathUtil reports the hottest link on the deterministic shortest path
// from a to b — the bottleneck a window placed on donor b would share.
// ok is false when telemetry is off or no link on the path has been
// sampled; links without samples are treated as idle otherwise.
func (v *View) PathUtil(a, b fabric.NodeID) (float64, bool) {
	if !v.HasTelemetry || a == b {
		return 0, false
	}
	routes := v.Topo.Routes()
	max, known := 0.0, false
	for cur := a; cur != b; {
		nxt, ok := routes.NextHop(cur, b)
		if !ok {
			return 0, false
		}
		if u, ok := v.linkUtil[linkKey(cur, nxt)]; ok {
			known = true
			if u > max {
				max = u
			}
		}
		cur = nxt
	}
	return max, known
}

// PathLinks lists the links (as unordered pairs) on the deterministic
// shortest path from a to b, in hop order; nil when no route exists.
func (v *View) PathLinks(a, b fabric.NodeID) [][2]fabric.NodeID {
	if a == b {
		return nil
	}
	routes := v.Topo.Routes()
	var links [][2]fabric.NodeID
	for cur := a; cur != b; {
		nxt, ok := routes.NextHop(cur, b)
		if !ok {
			return nil
		}
		links = append(links, linkKey(cur, nxt))
		cur = nxt
	}
	return links
}

// PathBottleneck reports the hottest sampled link on the a→b path —
// the link a migration must relieve; ok is false when telemetry is off
// or no link on the path has been sampled.
func (v *View) PathBottleneck(a, b fabric.NodeID) (link [2]fabric.NodeID, util float64, ok bool) {
	if !v.HasTelemetry {
		return link, 0, false
	}
	for _, l := range v.PathLinks(a, b) {
		if u, sampled := v.linkUtil[l]; sampled && (!ok || u > util) {
			link, util, ok = l, u, true
		}
	}
	return link, util, ok
}

// PathCommits reports how many live memory leases share the most
// committed link on the a→b path. Commitments are the placement-time
// complement to the utilization window: a lease granted moments ago is
// invisible to telemetry until its traffic has crossed a beat window,
// but the MN already knows which links its fills will ride.
func (v *View) PathCommits(a, b fabric.NodeID) int {
	max := 0
	for _, l := range v.PathLinks(a, b) {
		if c := v.commits[l]; c > max {
			max = c
		}
	}
	return max
}

// PathCrosses reports whether the a→b path traverses the given link.
func (v *View) PathCrosses(a, b fabric.NodeID, link [2]fabric.NodeID) bool {
	for _, l := range v.PathLinks(a, b) {
		if l == link {
			return true
		}
	}
	return false
}

// FirstHopUtil reports the utilization of node's busiest sampled
// adjacent link — the "recipient's own congested first hop" signal.
func (v *View) FirstHopUtil(node fabric.NodeID) (float64, bool) {
	if !v.HasTelemetry {
		return 0, false
	}
	max, known := 0.0, false
	for _, nb := range v.Topo.NeighborsOf(node) {
		if u, ok := v.linkUtil[linkKey(node, nb)]; ok {
			known = true
			if u > max {
				max = u
			}
		}
	}
	return max, known
}
