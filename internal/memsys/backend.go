package memsys

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// AccessCtx carries the executing process and a flush hook into backend
// accesses. Backends that block (remote fills, page faults) must call
// Flush first so lazily-accumulated local time is charged in order.
type AccessCtx struct {
	Proc  *sim.Proc
	Flush func()
}

// Backend services post-cache traffic for one address region. Access is
// a demand fill (write reports the CPU's store intent, which matters for
// page dirty tracking); Writeback receives evicted dirty lines. Returned
// durations are charged lazily by the hierarchy; backends that block the
// process directly return 0.
type Backend interface {
	Access(ctx *AccessCtx, addr uint64, size int, write bool) sim.Dur
	Writeback(ctx *AccessCtx, addr uint64, size int) sim.Dur
	Name() string
}

// AsyncBackend is implemented by backends whose demand fills can be
// issued concurrently. The hierarchy exploits it for multi-line
// accesses: all missing lines of one Read/Write are requested together
// and awaited once, modeling the MSHRs a streaming core relies on.
type AsyncBackend interface {
	AccessAsync(ctx *AccessCtx, addr uint64, size int) *sim.Completion
}

// LocalDRAM is plain node-local memory.
type LocalDRAM struct {
	P *sim.Params
}

// Access charges one DRAM access, plus burst time for multi-line sizes.
func (d *LocalDRAM) Access(_ *AccessCtx, _ uint64, size int, _ bool) sim.Dur {
	bursts := (size + 63) / 64
	if bursts < 1 {
		bursts = 1
	}
	return d.P.DRAMLat + sim.Dur(bursts-1)*(d.P.DRAMLat/4)
}

// Writeback drains through the memory controller's write buffer.
func (d *LocalDRAM) Writeback(_ *AccessCtx, _ uint64, _ int) sim.Dur {
	return d.P.DRAMLat / 4
}

// Name identifies the backend.
func (d *LocalDRAM) Name() string { return "dram" }

// CRMARemote backs a region with donor memory reached through the CRMA
// channel: misses become hardware cacheline fills; dirty writebacks are
// posted stores (§5.1.2).
type CRMARemote struct {
	CRMA  *transport.CRMA
	Donor fabric.NodeID
}

// Access blocks for the remote fill; a store's intent changes nothing on
// the fetch path (write-allocate).
func (c *CRMARemote) Access(ctx *AccessCtx, addr uint64, size int, _ bool) sim.Dur {
	ctx.Flush()
	c.CRMA.Fill(ctx.Proc, addr, size)
	return 0
}

// AccessAsync implements AsyncBackend: the hierarchy overlaps fills for
// the lines of one multi-line access (hardware MSHR-style memory-level
// parallelism), which is what lets CRMA stream contiguous data.
func (c *CRMARemote) AccessAsync(_ *AccessCtx, addr uint64, size int) *sim.Completion {
	return c.CRMA.FillAsync(addr, size)
}

// Writeback posts the dirty line to the donor off the critical path.
func (c *CRMARemote) Writeback(_ *AccessCtx, addr uint64, size int) sim.Dur {
	c.CRMA.WriteAsync(addr, size)
	return 0
}

// Name identifies the backend.
func (c *CRMARemote) Name() string { return "crma:" + c.Donor.String() }

// Region is one mapping in a node's physical address space. Uncached
// regions bypass the cache entirely — every access goes to the backend
// at its own granularity, the behavior of PIO windows such as a PCIe
// BAR mapping (the Fig. 3 "PCIe LD/ST" configuration).
type Region struct {
	Base     uint64
	Size     uint64
	Backend  Backend
	Uncached bool
}

// End reports one past the region's last byte.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls in the region.
func (r *Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// AddressSpace is an ordered set of non-overlapping regions.
type AddressSpace struct {
	regions []*Region
}

// Add installs a region, rejecting overlap.
func (as *AddressSpace) Add(r *Region) error {
	for _, e := range as.regions {
		if r.Base < e.End() && e.Base < r.End() {
			return fmt.Errorf("memsys: region [%#x,%#x) overlaps [%#x,%#x)",
				r.Base, r.End(), e.Base, e.End())
		}
	}
	as.regions = append(as.regions, r)
	return nil
}

// Remove deletes a region (hot-remove).
func (as *AddressSpace) Remove(r *Region) {
	for i, e := range as.regions {
		if e == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			return
		}
	}
}

// Lookup finds the region containing addr.
func (as *AddressSpace) Lookup(addr uint64) (*Region, bool) {
	for _, r := range as.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return nil, false
}
