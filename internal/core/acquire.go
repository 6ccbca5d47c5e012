package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/vnic"
)

// Both cluster shapes are Planes: scenario code written against the
// interface runs on either.
var (
	_ Plane = (*Cluster)(nil)
	_ Plane = (*HierCluster)(nil)
)

// Observe registers a lease-lifecycle observer with the flat plane and
// returns its cancel.
func (c *Cluster) Observe(fn Observer) (cancel func()) { return c.hub.observe(fn) }

// Acquire obtains one resource through the flat plane's Monitor Node
// (or directly, for the Direct kinds). See Plane.
func (c *Cluster) Acquire(p *sim.Proc, req Request) (Lease, error) {
	return acquireWithRetry(p, req, &c.hub, c.acquireOnce)
}

// AcquireAll grants every request or none. See Plane.
func (c *Cluster) AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error) {
	return acquireAll(c, p, reqs)
}

// acquireOnce runs one acquisition attempt on the flat plane.
func (c *Cluster) acquireOnce(p *sim.Proc, r Request) (Lease, error) {
	if err := r.validate(false); err != nil {
		return nil, err
	}
	if r.Kind.direct() {
		return acquireDirect(p, r, &c.hub)
	}
	b := broker{mn: c.MN.Node(), eng: c.Eng, params: c.P, nodes: c.Nodes, hub: &c.hub}
	return b.acquire(p, r)
}

// Observe registers a lease-lifecycle observer with the rack-scale
// plane (it aggregates every sub-MN's and the root's recovery events)
// and returns its cancel.
func (c *HierCluster) Observe(fn Observer) (cancel func()) { return c.hub.observe(fn) }

// Acquire obtains one resource through the recipient's rack sub-MN —
// escalated across the spine by the root MN when the rack cannot (or,
// under ScopeRemoteRack, must not) serve it. See Plane.
func (c *HierCluster) Acquire(p *sim.Proc, req Request) (Lease, error) {
	return acquireWithRetry(p, req, &c.hub, c.acquireOnce)
}

// AcquireAll grants every request or none. See Plane.
func (c *HierCluster) AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error) {
	return acquireAll(c, p, reqs)
}

// acquireOnce runs one acquisition attempt on the rack-scale plane.
func (c *HierCluster) acquireOnce(p *sim.Proc, r Request) (Lease, error) {
	if err := r.validate(true); err != nil {
		return nil, err
	}
	if r.Kind.direct() {
		return acquireDirect(p, r, &c.hub)
	}
	rack, ok := c.Hier.RackOf(r.On.ID)
	if !ok {
		return nil, fmt.Errorf("%w: recipient %v is a spine switch, not a rack member", ErrBadRequest, r.On.ID)
	}
	b := broker{mn: c.SubNode(rack), scope: r.scope, scoped: r.hasScope,
		eng: c.Eng, params: c.P, nodes: c.Nodes, hub: &c.hub}
	return b.acquire(p, r)
}

// broker is one plane's MN-brokered acquire path: the MN (or the
// recipient's rack sub-MN) it asks, the placement scope it asks with,
// and the plane state the per-kind setup needs.
type broker struct {
	mn     fabric.NodeID
	scope  monitor.AllocScope
	scoped bool // the request set its scope explicitly
	eng    *sim.Engine
	params *sim.Params
	nodes  []*node.Node
	hub    *eventHub
}

// acquire runs one MN-brokered grant: ask the MN, map a timeout, an
// admission rejection or a placement decline onto the acquire error
// classes, then hand the grant to the kind's setup — the CRMA mount,
// the swap device, the accelerator handle or the VNIC path.
func (b broker) acquire(p *sim.Proc, r Request) (Lease, error) {
	req := &monitor.AllocReq{
		Scope: b.scope, Policy: r.policy, Latency: r.latency,
		Trace: r.trace, Tenant: r.tenant, Class: r.class,
	}
	var what string
	switch r.Kind {
	case Memory, Swap:
		what = fmt.Sprintf("borrow %d bytes", r.Size)
		if r.Kind == Swap {
			what = fmt.Sprintf("borrow swap %d bytes", r.Size)
		}
		// Every memory grant, swap included, gets its own recipient
		// window: the window keys the donor agent's export and the
		// grant's cancellation, so two leases must never share one.
		req.Kind, req.Size, req.WindowBase = monitor.Memory, r.Size, r.On.NextHotplugWindow(r.Size)
	case Accel:
		what, req.Kind = "attach accelerator", monitor.DevAccelerator
	default: // NIC
		what, req.Kind = "attach NIC", monitor.DevNIC
	}
	resp, ok := monitor.Alloc(p, r.On.EP, b.mn, req, r.timeout)
	if !ok {
		return nil, fmt.Errorf("core: %s: %w", what, ErrTimeout)
	}
	if !resp.OK {
		if resp.Rejected {
			return nil, fmt.Errorf("core: %s: %s: %w", what, resp.Err, ErrAdmissionRejected)
		}
		if b.scoped {
			what += fmt.Sprintf(" (scope %d)", b.scope)
		}
		return nil, fmt.Errorf("core: %s: %s: %w", what, resp.Err, ErrUnavailable)
	}
	switch r.Kind {
	case Memory:
		return b.mountMemory(p, r, req.WindowBase, resp)
	case Swap:
		return b.swapDevice(p, r, resp)
	case Accel:
		return b.attachAccel(p, r, resp)
	default:
		return b.attachNIC(p, r, resp)
	}
}

// granted reports a memory grant's size: the request's, unless
// admission degraded it.
func granted(r Request, resp *monitor.AllocResp) uint64 {
	if resp.Granted > 0 && resp.Granted < r.Size {
		return resp.Granted
	}
	return r.Size
}

// mountMemory completes the Fig. 2 flow for a memory grant: mount the
// donor region over CRMA at the window the request reserved. A
// degraded grant mounts at the same base, with room to spare.
func (b broker) mountMemory(p *sim.Proc, r Request, win uint64, resp *monitor.AllocResp) (Lease, error) {
	size := granted(r, resp)
	lease, err := mountCRMA(p, r.On, resp.Donor, win, resp.DonorBase, size)
	if err != nil {
		// The grant committed MN-side (RAT row live, donor region
		// hot-removed); a recipient-side mount failure must hand it back
		// or the donor's memory leaks untracked.
		monitor.Free(p, r.On.EP, b.mn, resp.AllocID)
		return nil, err
	}
	lease.kind, lease.allocID, lease.mn, lease.hub, lease.trace = Memory, resp.AllocID, b.mn, b.hub, r.trace
	emitGranted(b.hub, p, Memory, r.On.ID, resp.Donor, size, win, r.trace, r.tenant, r.class)
	return lease, nil
}

// swapDevice wraps a memory grant in the remote-swap block device.
func (b broker) swapDevice(p *sim.Proc, r Request, resp *monitor.AllocResp) (Lease, error) {
	size := granted(r, resp)
	lease := &SwapLease{
		Recipient: r.On,
		DonorBase: resp.DonorBase,
		Size:      size,
		Dev: &memsys.RemoteSwap{P: r.On.P, RDMA: r.On.EP.RDMA,
			Donor: resp.Donor, Base: resp.DonorBase},
		donor:   resp.Donor,
		kind:    Swap,
		allocID: resp.AllocID,
		mn:      b.mn,
		hub:     b.hub,
		trace:   r.trace,
	}
	emitGranted(b.hub, p, Swap, r.On.ID, resp.Donor, size, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// attachAccel opens a handle to the requested mailbox on the granted
// donor. The donor must be running an accel.Service (its agent
// advertises the device count).
func (b broker) attachAccel(p *sim.Proc, r Request, resp *monitor.AllocResp) (Lease, error) {
	h := r.client.Attach(resp.Donor, r.device, r.exclusive)
	lease := &AccelLease{
		Handle:    h,
		Recipient: r.On,
		donor:     b.nodes[resp.Donor],
		nodes:     b.nodes,
		allocID:   resp.AllocID,
		mn:        b.mn,
		hub:       b.hub,
		trace:     r.trace,
	}
	// Follow recovery live: a donor failover retargets the handle and
	// replays in-flight chunks against the replacement device.
	lease.cancelWatch = b.hub.observe(lease.onEvent)
	emitGranted(b.hub, p, Accel, r.On.ID, resp.Donor, 1, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// attachNIC builds the VNIC path to the granted donor's physical NIC
// (created here on its behalf).
func (b broker) attachNIC(p *sim.Proc, r Request, resp *monitor.AllocResp) (Lease, error) {
	donor := b.nodes[resp.Donor]
	dn := vnic.NewNIC(b.eng, b.params, fmt.Sprintf("eth0@%v", donor.ID))
	v := vnic.AttachRemote(r.On, donor, dn)
	lease := &NICLease{
		VNIC:      v,
		Recipient: r.On,
		donor:     donor,
		nodes:     b.nodes,
		eng:       b.eng,
		params:    b.params,
		allocID:   resp.AllocID,
		mn:        b.mn,
		hub:       b.hub,
		trace:     r.trace,
	}
	// Follow recovery live: a donor failover rebuilds the VNIC path
	// against the replacement donor's physical NIC.
	lease.cancelWatch = b.hub.observe(lease.onEvent)
	emitGranted(b.hub, p, NIC, r.On.ID, resp.Donor, 1, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// acquireDirect wires a DirectMemory/DirectSwap attachment between the
// request's recipient and its named donor, bypassing the MN — but, on
// this surface, no longer bypassing the plane's lifecycle stream.
func acquireDirect(p *sim.Proc, r Request, hub *eventHub) (Lease, error) {
	if r.Kind == DirectMemory {
		lease, err := attachMemoryDirect(p, r.On, r.donor, r.Size)
		if err != nil {
			return nil, err
		}
		lease.hub, lease.trace = hub, r.trace
		emitGranted(hub, p, DirectMemory, r.On.ID, r.donor.ID, r.Size, lease.WindowBase, r.trace, 0, tenancy.ClassNone)
		return lease, nil
	}
	lease, err := attachSwapDirect(p, r.On, r.donor, r.Size)
	if err != nil {
		return nil, err
	}
	lease.hub, lease.trace = hub, r.trace
	emitGranted(hub, p, DirectSwap, r.On.ID, r.donor.ID, r.Size, 0, r.trace, 0, tenancy.ClassNone)
	return lease, nil
}

// emitGranted announces a successful grant on the plane's stream.
func emitGranted(hub *eventHub, p *sim.Proc, kind Kind, recipient, donor fabric.NodeID, size, window uint64, trace, tenant uint64, class tenancy.Class) {
	hub.emit(Event{
		Type: LeaseGranted, Kind: kind, At: p.Now(), Trace: trace,
		Recipient: recipient, Donor: donor, Size: size, Window: window,
		Tenant: tenant, Class: class,
	})
}
