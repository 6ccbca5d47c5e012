// Package transport implements Venice's transport-layer remote access
// channels (§5.1.2 of the paper): the CRMA channel for cacheline-grained
// remote memory access through load/store instructions, the RDMA channel
// for software-initiated bulk transfers, and the QPair channel for
// user-level message passing — plus the inter-channel collaboration
// mechanism (§5.1.3) that carries QPair flow-control credits over CRMA.
package transport

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// MemService models the donor-side memory being read or written when a
// remote request arrives. The node layer wires in its memory system; the
// default charges one DRAM access per request.
type MemService interface {
	// Service returns the time to satisfy an access of size bytes at
	// addr. write distinguishes stores from loads.
	Service(addr uint64, size int, write bool) sim.Dur
}

// flatDRAM is the default MemService: every request costs one DRAM access
// plus streaming time proportional to size.
type flatDRAM struct{ p *sim.Params }

func (f flatDRAM) Service(_ uint64, size int, _ bool) sim.Dur {
	// 64 B per DRAM burst beyond the first.
	bursts := (size + 63) / 64
	if bursts < 1 {
		bursts = 1
	}
	return f.p.DRAMLat + sim.Dur(bursts-1)*(f.p.DRAMLat/4)
}

// Handler processes an incoming raw packet addressed to a registered kind.
type Handler func(pkt *fabric.Packet)

// CallHandler services an RPC registered with HandleCall. It runs inside
// a fresh simulated process, so it may block (sleep, touch memory, send
// nested messages). It returns the response payload and its wire size.
type CallHandler func(p *sim.Proc, from fabric.NodeID, req any) (resp any, respSize int)

// Endpoint is one node's Venice transport interface: the hardware block
// that terminates the three channels and demultiplexes arriving packets.
type Endpoint struct {
	Eng *sim.Engine
	P   *sim.Params
	Net *fabric.Network
	ID  fabric.NodeID

	CRMA *CRMA
	RDMA *RDMA

	Mem MemService

	qpairs   map[int]*QPair
	handlers map[string]Handler
	calls    map[string]CallHandler
	pending  map[uint64]*pendingCall
	nextID   uint64

	// Stats tallies per-channel operation counts and latencies, plus the
	// packets dropped because nothing on this node could take them
	// (drop.no_handler, drop.no_call_handler, drop.unknown_qpair).
	Stats sim.Scoreboard
}

// pendingCall tracks an outstanding RPC issued by Call.
type pendingCall struct {
	done     *sim.Completion
	resp     any
	timedOut bool
}

// rpcReq and rpcResp are the wire envelopes of the generic RPC helper
// used by the runtime layers (monitor, accelerator, NIC drivers).
type rpcReq struct {
	id   uint64
	kind string
	body any
}

type rpcResp struct {
	id   uint64
	body any
}

// NewEndpoint attaches a transport endpoint to node id on the network.
func NewEndpoint(eng *sim.Engine, p *sim.Params, net *fabric.Network, id fabric.NodeID) *Endpoint {
	ep := &Endpoint{
		Eng:      eng,
		P:        p,
		Net:      net,
		ID:       id,
		Mem:      flatDRAM{p},
		qpairs:   make(map[int]*QPair),
		handlers: make(map[string]Handler),
		calls:    make(map[string]CallHandler),
		pending:  make(map[uint64]*pendingCall),
	}
	ep.CRMA = newCRMA(ep)
	ep.RDMA = newRDMA(ep)
	net.SetDelivery(id, ep.deliver)
	return ep
}

// Handle registers a raw packet handler for a packet kind.
func (ep *Endpoint) Handle(kind string, h Handler) { ep.handlers[kind] = h }

// HandleCall registers an RPC service for a call kind.
func (ep *Endpoint) HandleCall(kind string, h CallHandler) { ep.calls[kind] = h }

// SendRaw injects an arbitrary packet from this endpoint.
func (ep *Endpoint) SendRaw(dst fabric.NodeID, kind string, size int, payload any) {
	ep.Net.Send(&fabric.Packet{Src: ep.ID, Dst: dst, Kind: kind, Size: size, Payload: payload})
}

// Call performs a blocking RPC to kind on dst: request of reqSize bytes,
// response produced by the remote CallHandler. It is the control-plane
// primitive used by the resource-management runtime; data-plane traffic
// uses the three channels directly.
func (ep *Endpoint) Call(p *sim.Proc, dst fabric.NodeID, kind string, reqSize int, body any) any {
	resp, _ := ep.CallTimeout(p, dst, kind, reqSize, body, 0)
	return resp
}

// CallTimeout is Call with a deadline: if no response arrives within
// timeout (of virtual time), it returns (nil, false) and a late response
// is silently dropped. A timeout of zero waits forever. This is what
// lets the resource-management runtime survive peers that crash while
// servicing a request — a plain Call to a dead node parks its caller
// permanently.
func (ep *Endpoint) CallTimeout(p *sim.Proc, dst fabric.NodeID, kind string, reqSize int, body any, timeout sim.Dur) (any, bool) {
	id := ep.nextID
	ep.nextID++
	pc := &pendingCall{done: sim.NewCompletion(ep.Eng)}
	ep.pending[id] = pc
	ep.SendRaw(dst, "rpc."+kind, reqSize, &rpcReq{id: id, kind: kind, body: body})
	var watchdog sim.Handle
	if timeout > 0 {
		watchdog = ep.Eng.ScheduleCancelable(timeout, func() {
			if !pc.done.Done() {
				pc.timedOut = true
				pc.done.Complete()
			}
		})
	}
	p.Await(pc.done)
	// When the response wins the race, revoke the watchdog instead of
	// letting it fire later as a dead callback: every monitor heartbeat,
	// grant, and recovery RPC otherwise leaves a tombstone event churning
	// through the queue.
	ep.Eng.Cancel(watchdog)
	delete(ep.pending, id)
	if pc.timedOut {
		ep.Stats.Add("rpc.timeouts", 1)
		return nil, false
	}
	return pc.resp, true
}

// deliver demultiplexes an arriving packet to its channel or handler.
func (ep *Endpoint) deliver(pkt *fabric.Packet) {
	switch m := pkt.Payload.(type) {
	case *crmaReq:
		ep.CRMA.handleReq(pkt, m)
	case *crmaResp:
		ep.CRMA.handleResp(m)
	case *crmaPosted:
		ep.CRMA.handlePosted(m)
	case *rdmaReq:
		ep.RDMA.handleReq(pkt, m)
	case *rdmaChunk:
		ep.RDMA.handleChunk(pkt, m)
	case *qpMsg:
		ep.deliverQP(pkt, m)
	case *qpCredit:
		ep.creditQP(m)
	case *rpcReq:
		ep.handleRPC(pkt, m)
	case *rpcResp:
		pc, ok := ep.pending[m.id]
		if !ok {
			return // caller vanished; drop
		}
		pc.resp = m.body
		pc.done.Complete()
	default:
		h, ok := ep.handlers[pkt.Kind]
		if !ok {
			// A peer's packet must not crash this node: drop and count it.
			ep.Stats.Add("drop.no_handler", 1)
			return
		}
		h(pkt)
	}
}

// handleRPC spawns a process to service a call and reply.
func (ep *Endpoint) handleRPC(pkt *fabric.Packet, req *rpcReq) {
	h, ok := ep.calls[req.kind]
	if !ok {
		// Unanswered: the caller's CallTimeout bounds its wait.
		ep.Stats.Add("drop.no_call_handler", 1)
		return
	}
	from := pkt.Src
	ep.Eng.Go("rpc."+req.kind, func(p *sim.Proc) {
		resp, size := h(p, from, req.body)
		ep.SendRaw(from, "rpc.resp", size, &rpcResp{id: req.id, body: resp})
	})
}

// deliverQP routes an arriving QPair message to its local queue pair.
func (ep *Endpoint) deliverQP(pkt *fabric.Packet, m *qpMsg) {
	qp, ok := ep.qpairs[m.dstQID]
	if !ok {
		ep.Stats.Add("drop.unknown_qpair", 1)
		return
	}
	qp.arrive(pkt, m)
}

// creditQP routes a wire credit update to its local queue pair's
// hardware state machine (the sender-side cost of QPair-path credits is
// the receiver's software send plus the wire, already paid upstream).
func (ep *Endpoint) creditQP(m *qpCredit) {
	qp, ok := ep.qpairs[m.dstQID]
	if !ok {
		return // pair torn down; stale credit
	}
	ep.Eng.Schedule(ep.P.QPairDoor, func() { qp.addCredits(m.credits) })
}
