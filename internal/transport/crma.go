package transport

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// crmaReq is a cacheline fetch or store crossing the fabric.
type crmaReq struct {
	id    uint64
	addr  uint64 // requester-local address; translated by the donor's table
	size  int
	write bool
}

// crmaResp completes a crmaReq at the requester.
type crmaResp struct {
	id uint64
}

// crmaPosted is a fire-and-forget remote store, used by the
// inter-channel collaboration mechanism to deposit flow-control credits
// directly into donor memory (§5.1.3, Fig. 9).
type crmaPosted struct {
	credit *qpCredit
}

// RAMTEntry is one row of the Remote Address Mapping Table (Fig. 8):
// local window base/size mapped onto a remote node's physical region.
type RAMTEntry struct {
	Valid      bool
	LocalBase  uint64
	Size       uint64
	Node       fabric.NodeID
	RemoteBase uint64

	// Dead marks a requester-side window whose lease was revoked with no
	// replacement donor (the donor died and re-placement failed). The
	// window stays mapped so accesses do not trap, but they complete
	// immediately with poison data; CRMAStats.DeadAccesses counts them so
	// callers can report the failure honestly.
	Dead bool
}

// contains reports whether addr falls inside the entry's local window.
func (e *RAMTEntry) contains(addr uint64) bool {
	return e.Valid && addr >= e.LocalBase && addr < e.LocalBase+e.Size
}

// translate maps a requester-local address to the donor-local address.
func (e *RAMTEntry) translate(addr uint64) uint64 {
	return e.RemoteBase + (addr - e.LocalBase)
}

// CRMAStats counts CRMA channel activity.
type CRMAStats struct {
	Fills        int64
	Writes       int64
	Posted       int64
	Served       int64 // requests serviced for remote nodes (donor role)
	Unexported   int64 // requests dropped at the donor for lack of an export (rebooted donor)
	Replayed     int64 // in-flight accesses re-issued after a window retarget
	DeadAccesses int64 // accesses to a revoked (dead) window, completed with poison
	FillLat      sim.Hist
}

// CRMA is the cacheline remote memory access channel: once a mapping is
// installed, misses to the mapped window are captured in hardware,
// packetized, and serviced by the donor with no software on the critical
// path.
type CRMA struct {
	ep      *Endpoint
	ramt    []*RAMTEntry // requester-side windows
	exports []*RAMTEntry // donor-side reverse mappings (remote node's window -> local)
	pending map[uint64]*crmaPending
	nextID  uint64

	Stats CRMAStats
}

// crmaPending tracks one outstanding access for completion and latency
// accounting. addr and size are kept so the access can be re-issued
// against a new donor if the window is retargeted while it is in flight.
type crmaPending struct {
	done  *sim.Completion
	start sim.Time
	write bool
	addr  uint64
	size  int
}

func newCRMA(ep *Endpoint) *CRMA {
	return &CRMA{ep: ep, pending: make(map[uint64]*crmaPending)}
}

// Map installs a requester-side RAMT entry: the local window
// [localBase, localBase+size) resolves to donor's [remoteBase, ...).
// The matching donor-side entry must be installed with Export.
func (c *CRMA) Map(localBase, size uint64, donor fabric.NodeID, remoteBase uint64) (*RAMTEntry, error) {
	if size == 0 {
		return nil, fmt.Errorf("crma: zero-size mapping")
	}
	for _, e := range c.ramt {
		if e.Valid && localBase < e.LocalBase+e.Size && e.LocalBase < localBase+size {
			return nil, fmt.Errorf("crma: window [%#x,%#x) overlaps existing entry", localBase, localBase+size)
		}
	}
	e := &RAMTEntry{Valid: true, LocalBase: localBase, Size: size, Node: donor, RemoteBase: remoteBase}
	c.ramt = append(c.ramt, e)
	return e, nil
}

// Export installs the donor-side mapping that accepts requests from a
// recipient for local region [localBase, localBase+size).
func (c *CRMA) Export(recipient fabric.NodeID, recipientBase, size, localBase uint64) *RAMTEntry {
	e := &RAMTEntry{Valid: true, LocalBase: recipientBase, Size: size, Node: recipient, RemoteBase: localBase}
	c.exports = append(c.exports, e)
	return e
}

// Unmap invalidates a requester-side entry after cleanup (stop-sharing).
func (c *CRMA) Unmap(e *RAMTEntry) { e.Valid = false }

// Reset wipes the channel's soft state — every mapping, every export,
// every pending access — modeling the node rebooting: the RAMT is
// hardware state that does not survive power loss. Completions of wiped
// pending accesses never fire (their waiters died with the node).
func (c *CRMA) Reset() {
	c.ramt = nil
	c.exports = nil
	c.pending = make(map[uint64]*crmaPending)
}

// pendingInWindow collects the ids of in-flight accesses whose address
// falls inside [base, base+size), ascending — the deterministic order
// both recovery paths (replay and kill) walk them in.
func (c *CRMA) pendingInWindow(base, size uint64) []uint64 {
	ids := make([]uint64, 0, len(c.pending))
	for id, pend := range c.pending {
		if pend.addr >= base && pend.addr < base+size {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Retarget points a requester-side window at a new donor region — the
// transport half of lease failover. In-flight accesses are NOT replayed
// here; call ReplayWindow once the new donor's export is known live.
func (c *CRMA) Retarget(e *RAMTEntry, donor fabric.NodeID, remoteBase uint64) {
	e.Node = donor
	e.RemoteBase = remoteBase
	e.Dead = false
}

// ReplayWindow re-issues every pending access that falls inside the
// window [base, base+size) against the window's current donor. Requests
// lost to a dead donor complete when their replay's response arrives; a
// request the old donor did answer (response still in flight) is
// completed by whichever response lands first, and the duplicate is
// dropped by id. Iteration is in ascending request id so replays hit the
// wire in a deterministic order.
func (c *CRMA) ReplayWindow(base, size uint64) int {
	ids := c.pendingInWindow(base, size)
	replayed := 0
	for _, id := range ids {
		pend := c.pending[id]
		e, ok := c.Lookup(pend.addr)
		if !ok || e.Dead {
			continue
		}
		c.Stats.Replayed++
		replayed++
		reqSize := 16
		if pend.write {
			reqSize = 16 + pend.size
		}
		req := &crmaReq{id: id, addr: pend.addr, size: pend.size, write: pend.write}
		node := e.Node
		c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
			c.ep.SendRaw(node, "crma.req", reqSize, req)
		})
	}
	return replayed
}

// KillWindow marks a requester-side window revoked-without-replacement:
// the entry goes dead (future accesses complete instantly as poison, see
// RAMTEntry.Dead) and every pending access inside it is completed so no
// process stays parked on a donor that will never answer.
func (c *CRMA) KillWindow(base, size uint64) {
	for _, e := range c.ramt {
		if e.Valid && e.LocalBase == base && e.Size == size {
			e.Dead = true
		}
	}
	for _, id := range c.pendingInWindow(base, size) {
		pend := c.pending[id]
		delete(c.pending, id)
		c.Stats.DeadAccesses++
		pend.done.Complete()
	}
}

// Lookup finds the RAMT entry covering addr, if any — the hardware hit
// check of Fig. 8.
func (c *CRMA) Lookup(addr uint64) (*RAMTEntry, bool) {
	for _, e := range c.ramt {
		if e.contains(addr) {
			return e, true
		}
	}
	return nil, false
}

// FillAsync issues a remote read of size bytes at addr (which must be
// covered by a mapping) and returns a completion that fires when the data
// arrives. This is the hardware path a cache miss takes.
func (c *CRMA) FillAsync(addr uint64, size int) *sim.Completion {
	return c.accessAsync(addr, size, false)
}

// WriteAsync issues a remote store (e.g. a dirty writeback) and returns
// its acknowledgement completion.
func (c *CRMA) WriteAsync(addr uint64, size int) *sim.Completion {
	return c.accessAsync(addr, size, true)
}

func (c *CRMA) accessAsync(addr uint64, size int, write bool) *sim.Completion {
	e, ok := c.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("crma: node %v: access to unmapped address %#x", c.ep.ID, addr))
	}
	if e.Dead {
		// Revoked window: complete instantly with poison rather than trap,
		// and count the failure for the caller's accounting.
		c.Stats.DeadAccesses++
		done := sim.NewCompletion(c.ep.Eng)
		done.Complete()
		return done
	}
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Fills++
	}
	id := c.nextID
	c.nextID++
	pend := &crmaPending{done: sim.NewCompletion(c.ep.Eng), start: c.ep.Eng.Now(),
		write: write, addr: addr, size: size}
	c.pending[id] = pend
	reqSize := 16 // address + control
	if write {
		reqSize = 16 + size // write carries data
	}
	req := &crmaReq{id: id, addr: addr, size: size, write: write}
	// Capture + packetize in the CRMA logic, then inject.
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		c.ep.SendRaw(e.Node, "crma.req", reqSize, req)
	})
	return pend.done
}

// Fill blocks the calling process until a remote read completes.
func (c *CRMA) Fill(p *sim.Proc, addr uint64, size int) {
	p.Await(c.FillAsync(addr, size))
}

// Write blocks the calling process until a remote store is acknowledged.
func (c *CRMA) Write(p *sim.Proc, addr uint64, size int) {
	p.Await(c.WriteAsync(addr, size))
}

// PostWrite sends a fire-and-forget size-byte remote store that
// deposits credit into dst's credit mailbox region. Posted writes are
// overwriteable and carry no ordering guarantee relative to other
// channels — exactly the semantics the collaboration design needs for
// credit updates.
func (c *CRMA) PostWrite(dst fabric.NodeID, size int, credit *qpCredit) {
	c.Stats.Posted++
	m := &crmaPosted{credit: credit}
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		c.ep.SendRaw(dst, "crma.post", 16+size, m)
	})
}

// lookupExport finds the donor-side entry matching a requester address.
func (c *CRMA) lookupExport(from fabric.NodeID, addr uint64) (*RAMTEntry, bool) {
	for _, e := range c.exports {
		if e.Node == from && e.contains(addr) {
			return e, true
		}
	}
	return nil, false
}

// handleReq services a remote fill or store at the donor: translate
// through the export table, access memory, respond (for reads) after the
// memory service time.
func (c *CRMA) handleReq(pkt *fabric.Packet, m *crmaReq) {
	e, ok := c.lookupExport(pkt.Src, m.addr)
	if !ok {
		// A rebooted donor forgot its exports: drop the request (the
		// requester's lease will be re-placed by the Monitor Node and the
		// access replayed) instead of crashing the simulation.
		c.Stats.Unexported++
		return
	}
	c.Stats.Served++
	local := e.translate(m.addr)
	svc := c.ep.Mem.Service(local, m.size, m.write)
	respSize := m.size // read response carries data
	if m.write {
		respSize = 0 // store ack is header-only
	}
	from := pkt.Src
	c.ep.Eng.Schedule(c.ep.P.CRMALogic+svc, func() {
		c.ep.SendRaw(from, "crma.resp", respSize, &crmaResp{id: m.id})
	})
}

// handleResp completes the requester-side pending access.
func (c *CRMA) handleResp(m *crmaResp) {
	pend, ok := c.pending[m.id]
	if !ok {
		return
	}
	delete(c.pending, m.id)
	// De-packetize in the CRMA logic before handing data to the core.
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		if !pend.write {
			c.Stats.FillLat.AddDur(c.ep.Eng.Now().Sub(pend.start))
		}
		pend.done.Complete()
	})
}

// handlePosted applies a posted write at the receiver. Credit notes go
// straight to their queue pair's hardware state machine — no software on
// the path, which is the point of the collaboration (Fig. 9).
func (c *CRMA) handlePosted(m *crmaPosted) {
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		if qp, live := c.ep.qpairs[m.credit.dstQID]; live {
			qp.addCredits(m.credit.credits)
		}
	})
}
