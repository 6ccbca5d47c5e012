package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// DeliverFunc receives packets destined for a node's local port; the
// transport layer registers one per node.
type DeliverFunc func(*Packet)

// Switch is the low-dimension switch embedded in each Venice processor
// (§5.1.1): a handful of external ports plus one local port, enabling
// "switchless" direct chip-to-chip communication without an intermediary
// switch module.
type Switch struct {
	eng *sim.Engine
	p   *sim.Params

	id    NodeID
	lat   sim.Dur
	ports map[NodeID]*Link // neighbor -> outgoing link
	// next is this node's row of the network's route table: next[dst]
	// is the first hop toward dst.
	next  []NodeID
	local DeliverFunc

	// Extra per-direction latency modeling interface placement: zero for
	// on-chip interface logic, Params.OffChipCrossing when the Venice
	// interface sits across the I/O bus (Figs. 5-6 off-chip configs).
	injectExtra  sim.Dur
	deliverExtra sim.Dur

	// down models the node having crashed: the embedded switch neither
	// injects, forwards, nor delivers. The wires to a crashed node stay
	// modeled independently (their PHYs still ack at the datalink layer),
	// so link faults compose orthogonally with node faults.
	down bool
}

func newSwitch(eng *sim.Engine, p *sim.Params, id NodeID, next []NodeID) *Switch {
	return &Switch{
		eng:   eng,
		p:     p,
		id:    id,
		lat:   p.SwitchLat,
		ports: make(map[NodeID]*Link),
		next:  next,
	}
}

// ID reports the switch's node id.
func (s *Switch) ID() NodeID { return s.id }

// Degree reports the number of external ports in use.
func (s *Switch) Degree() int { return len(s.ports) }

// SetOffChip moves this node's fabric interface across the I/O bus: every
// injection and local delivery pays one extra Params.OffChipCrossing.
func (s *Switch) SetOffChip(offChip bool) {
	if offChip {
		s.injectExtra = s.p.OffChipCrossing
		s.deliverExtra = s.p.OffChipCrossing
	} else {
		s.injectExtra = 0
		s.deliverExtra = 0
	}
}

// SetDown marks the node crashed (every packet touching the switch is
// dropped) or restores it. In-flight packets already scheduled into the
// switch vanish as if power was cut mid-traversal.
func (s *Switch) SetDown(down bool) { s.down = down }

// IsDown reports whether the node is marked crashed.
func (s *Switch) IsDown() bool { return s.down }

// Inject sends a packet from this node's local port into the fabric.
func (s *Switch) Inject(pkt *Packet) {
	if pkt.Src != s.id {
		panic(fmt.Sprintf("fabric: inject at %v of packet from %v", s.id, pkt.Src))
	}
	if s.down {
		return
	}
	pkt.Injected = s.eng.Now()
	if s.injectExtra > 0 {
		s.eng.Schedule(s.injectExtra, func() { s.route(pkt) })
		return
	}
	s.route(pkt)
}

// receive implements the link receiver: one switch traversal, then route.
func (s *Switch) receive(pkt *Packet, _ *Link) {
	pkt.Hops++
	s.eng.Schedule(s.lat, func() { s.route(pkt) })
}

// route forwards a packet toward its destination or delivers it locally.
func (s *Switch) route(pkt *Packet) {
	if s.down {
		return
	}
	if pkt.Dst == s.id {
		deliver := func() {
			// The node can crash between route() and a deliverExtra-delayed
			// delivery; power-cut semantics mean the packet dies with it.
			if s.down {
				return
			}
			if s.local == nil {
				panic(fmt.Sprintf("fabric: node %v has no delivery handler for %v", s.id, pkt))
			}
			s.local(pkt)
		}
		if s.deliverExtra > 0 {
			s.eng.Schedule(s.deliverExtra, deliver)
			return
		}
		deliver()
		return
	}
	// NewNetwork refuses disconnected topologies, so every in-range
	// destination has a first hop.
	if pkt.Dst < 0 || int(pkt.Dst) >= len(s.next) {
		panic(fmt.Sprintf("fabric: node %v has no route to %v", s.id, pkt.Dst))
	}
	next := s.next[pkt.Dst]
	link, ok := s.ports[next]
	if !ok {
		panic(fmt.Sprintf("fabric: node %v has no port toward %v", s.id, next))
	}
	link.send(pkt)
}

// Router is an external one-level switch module inserted between two
// directly-connected nodes — the Fig. 6 experiment. It is a
// bump-in-the-wire: traffic arriving from one side leaves on the other
// after the router traversal latency.
type Router struct {
	eng  *sim.Engine
	p    *sim.Params
	name string
	lat  sim.Dur
	out  map[*Link]*Link // incoming link -> outgoing link on the far side

	forwarded int64
}

func newRouter(eng *sim.Engine, p *sim.Params, name string) *Router {
	return &Router{eng: eng, p: p, name: name, lat: p.RouterLat, out: make(map[*Link]*Link)}
}

// Forwarded reports how many packets crossed the router.
func (r *Router) Forwarded() int64 { return r.forwarded }

// receive implements the link receiver for the router.
func (r *Router) receive(pkt *Packet, from *Link) {
	pkt.Hops++
	outLink, ok := r.out[from]
	if !ok {
		panic("fabric: router received packet on unknown link")
	}
	r.forwarded++
	r.eng.Schedule(r.lat, func() { outLink.send(pkt) })
}
