package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Network assembles switches and links according to a topology and
// offers packet injection and delivery registration to the transport
// layer above.
type Network struct {
	Eng  *sim.Engine
	P    *sim.Params
	Topo Topology

	switches []*Switch
	links    map[[2]NodeID]*Link // (from,to) -> link
	routers  []*Router
	rng      *sim.RNG

	// Lat histograms end-to-end packet latency (inject -> local delivery).
	Lat sim.Hist
}

// NewNetwork builds the fabric for a topology. Per-node delivery handlers
// must be registered with SetDelivery before traffic flows to that node.
// Topo holds topo routed (see Topology.Routed): the switches forward by
// that table, and consumers handed Topo share it.
func NewNetwork(eng *sim.Engine, p *sim.Params, topo Topology, rng *sim.RNG) *Network {
	topo = topo.Routed()
	if a, b, ok := topo.routes.unreachable(); ok {
		panic(fmt.Sprintf("fabric: topology %s is disconnected (no path %d->%d)", topo.Name, a, b))
	}
	n := &Network{
		Eng:   eng,
		P:     p,
		Topo:  topo,
		links: make(map[[2]NodeID]*Link),
		rng:   rng,
	}
	for i := 0; i < topo.N; i++ {
		n.switches = append(n.switches, newSwitch(eng, p, NodeID(i), topo.routes.next[i*topo.N:(i+1)*topo.N]))
	}
	for _, e := range topo.Edges {
		n.connect(e[0], e[1])
		n.connect(e[1], e[0])
	}
	for _, s := range n.switches {
		if s.Degree() > p.LinkPorts {
			panic(fmt.Sprintf("fabric: node %v needs %d ports, switch has %d",
				s.id, s.Degree(), p.LinkPorts))
		}
	}
	return n
}

// connect creates the unidirectional link a->b.
func (n *Network) connect(a, b NodeID) {
	name := fmt.Sprintf("%v->%v", a, b)
	var lrng *sim.RNG
	if n.rng != nil {
		lrng = n.rng.Fork()
	}
	l := newLink(n.Eng, n.P, name, n.switches[b], lrng)
	n.links[[2]NodeID{a, b}] = l
	n.switches[a].ports[b] = l
}

// Switch returns the embedded switch of node id.
func (n *Network) Switch(id NodeID) *Switch { return n.switches[id] }

// Link returns the unidirectional link from a to b, or nil if the nodes
// are not directly connected.
func (n *Network) Link(a, b NodeID) *Link { return n.links[[2]NodeID{a, b}] }

// Nodes reports the number of nodes.
func (n *Network) Nodes() int { return n.Topo.N }

// SetDelivery registers the local-port handler for node id, wrapping it
// with latency accounting.
func (n *Network) SetDelivery(id NodeID, fn DeliverFunc) {
	n.switches[id].local = func(pkt *Packet) {
		n.Lat.AddDur(n.Eng.Now().Sub(pkt.Injected))
		fn(pkt)
	}
}

// Send injects a packet into the fabric at its source node.
func (n *Network) Send(pkt *Packet) {
	if int(pkt.Src) >= len(n.switches) || pkt.Src < 0 {
		panic(fmt.Sprintf("fabric: send from unknown node %v", pkt.Src))
	}
	n.switches[pkt.Src].Inject(pkt)
}

// HopCount reports shortest-path hops between two nodes.
func (n *Network) HopCount(a, b NodeID) int { return n.Topo.HopCount(a, b) }

// SetLinkGbps overrides the serial bandwidth of both directions of the
// a<->b link (0 restores the global Params.LinkGbps). Hierarchical
// topologies use it to model oversubscribed spine uplinks.
func (n *Network) SetLinkGbps(a, b NodeID, gbps float64) {
	if n.Link(a, b) == nil && n.Link(b, a) == nil {
		panic(fmt.Sprintf("fabric: no link %v<->%v to set bandwidth on", a, b))
	}
	if l := n.Link(a, b); l != nil {
		l.SetGbps(gbps)
	}
	if l := n.Link(b, a); l != nil {
		l.SetGbps(gbps)
	}
}

// SetLinkDown fails or restores both directions of the a<->b link.
func (n *Network) SetLinkDown(a, b NodeID, down bool) {
	if l := n.Link(a, b); l != nil {
		l.SetDown(down)
	}
	if l := n.Link(b, a); l != nil {
		l.SetDown(down)
	}
}

// SetNodeDown crashes or restores node id: while down, the node's
// embedded switch drops every packet it touches — injections, transit
// traffic being forwarded through it, and local deliveries. Links to the
// node are untouched (their PHYs still ack at the datalink layer), so a
// concurrent SetLinkDown composes independently.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	if int(id) >= len(n.switches) || id < 0 {
		panic(fmt.Sprintf("fabric: SetNodeDown of unknown node %v", id))
	}
	n.switches[id].SetDown(down)
}

// NodeDown reports whether node id is currently marked crashed.
func (n *Network) NodeDown(id NodeID) bool { return n.switches[id].IsDown() }

// SetErrorRate applies CRC fault injection to every link.
func (n *Network) SetErrorRate(r float64) {
	for _, l := range n.links {
		l.SetErrorRate(r)
	}
}

// InsertRouter replaces the direct links between a and b with a
// one-level external router, reproducing the indirect-network
// configuration of §4.2.2 (Fig. 6). The nodes' routing tables are
// unchanged: the router is a bump in the wire.
func (n *Network) InsertRouter(a, b NodeID) *Router {
	if n.Link(a, b) == nil || n.Link(b, a) == nil {
		panic(fmt.Sprintf("fabric: no direct link %v<->%v to route through", a, b))
	}
	r := newRouter(n.Eng, n.P, fmt.Sprintf("router(%v,%v)", a, b))
	var rrngA, rrngB, rrngC, rrngD *sim.RNG
	if n.rng != nil {
		rrngA, rrngB = n.rng.Fork(), n.rng.Fork()
		rrngC, rrngD = n.rng.Fork(), n.rng.Fork()
	}
	// Each half-link crosses one full node SerDes and one router retimer,
	// over half the original cable length.
	halfFixed := n.P.PhyLatency + n.P.RouterPhy + n.P.Propagation/2
	// a -> router -> b
	aToR := newLink(n.Eng, n.P, fmt.Sprintf("%v->R", a), r, rrngA)
	rToB := newLink(n.Eng, n.P, "R->"+b.String(), n.switches[b], rrngB)
	// b -> router -> a
	bToR := newLink(n.Eng, n.P, fmt.Sprintf("%v->R", b), r, rrngC)
	rToA := newLink(n.Eng, n.P, "R->"+a.String(), n.switches[a], rrngD)
	for _, l := range []*Link{aToR, rToB, bToR, rToA} {
		l.fixed = halfFixed
	}
	r.out[aToR] = rToB
	r.out[bToR] = rToA
	n.switches[a].ports[b] = aToR
	n.switches[b].ports[a] = bToR
	n.links[[2]NodeID{a, b}] = aToR
	n.links[[2]NodeID{b, a}] = bToR
	n.routers = append(n.routers, r)
	return r
}

// TotalLinkStats sums the counters over all links.
func (n *Network) TotalLinkStats() LinkStats {
	var total LinkStats
	for _, l := range n.links {
		s := l.Stats()
		total.Packets += s.Packets
		total.Bytes += s.Bytes
		total.Corrupted += s.Corrupted
		total.Replays += s.Replays
		total.CreditStall += s.CreditStall
		total.BusyTime += s.BusyTime
	}
	return total
}
