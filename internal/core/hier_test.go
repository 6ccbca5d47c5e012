package core

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
)

// hierTestConfig is the shared small fabric: 3 racks of 2x2x1 meshes
// behind 2 spines, with microsecond-scale detection so recovery tests
// run in milliseconds of virtual time.
func hierTestConfig(recovery bool) HierConfig {
	return HierConfig{
		Racks: 3, RackX: 2, RackY: 2, RackZ: 1,
		Seed:              7,
		HeartbeatInterval: 100 * sim.Microsecond,
		HeartbeatTimeout:  500 * sim.Microsecond,
		RackBeatInterval:  200 * sim.Microsecond,
		RackBeatTimeout:   sim.Millisecond,
		SweepInterval:     250 * sim.Microsecond,
		StartRecovery:     recovery,
	}
}

// stepUntil drives the engine until the completion fires (beat loops
// keep the queue alive forever, so Run would never return).
func stepUntil(t *testing.T, cl *HierCluster, done *sim.Completion) {
	t.Helper()
	for !done.Done() && cl.Eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("scenario wedged with %d live procs", cl.Eng.LiveProcs())
	}
}

// TestClustersShareOneRouteTable: a cluster routes its topology once.
// The network (its switches forward by this table), every monitor and
// the cluster's own Hier read the same *fabric.Routes, so no consumer
// pays for a private copy of the all-pairs table.
func TestClustersShareOneRouteTable(t *testing.T) {
	cl := NewHierCluster(hierTestConfig(false))
	defer cl.Close()
	routes := cl.Net.Topo.Routes()
	if cl.Hier.Routes() != routes {
		t.Fatal("HierCluster.Hier carries a different route table than the network")
	}
	for r, sub := range cl.Subs {
		if sub.Topo.Routes() != routes {
			t.Fatalf("sub-MN of rack %d carries its own route table", r)
		}
		if v := sub.View(); v.Topo.Routes() != routes {
			t.Fatalf("sub-MN of rack %d builds views over another route table", r)
		}
	}

	flat := NewCluster(Config{})
	defer flat.Close()
	if flat.MN.Topo.Routes() != flat.Net.Topo.Routes() {
		t.Fatal("flat MN carries a different route table than the network")
	}
}

// TestHierBorrowScopes: a rack-local borrow stays in the rack, a
// remote-scoped borrow is delegated across the spine by the root MN,
// and both free cleanly through the same release path.
func TestHierBorrowScopes(t *testing.T) {
	cl := NewHierCluster(hierTestConfig(false))
	defer cl.Close()
	cl.RunFor(25 * sim.Millisecond) // agents beat, sub-MNs rackbeat

	recipient := cl.Node(2) // rack 0, not the sub-MN node
	var local, cross *MemoryLease
	done := recipient.Run("borrower", func(p *sim.Proc) {
		var err error
		if local, err = acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeLocalRack)); err != nil {
			t.Errorf("local borrow: %v", err)
			return
		}
		if cross, err = acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeRemoteRack)); err != nil {
			t.Errorf("cross borrow: %v", err)
			return
		}
		// Both windows are plain loads through the recipient's hierarchy.
		recipient.Mem.Read(p, local.WindowBase, 2048)
		recipient.Mem.Read(p, cross.WindowBase, 2048)
		local.Release(p)
		cross.Release(p)
	})
	stepUntil(t, cl, done)

	if r, ok := cl.Hier.RackOf(local.Donor()); !ok || r != 0 {
		t.Fatalf("ScopeLocalRack lease landed on %v (rack %d)", local.Donor(), r)
	}
	if r, ok := cl.Hier.RackOf(cross.Donor()); !ok || r == 0 {
		t.Fatalf("ScopeRemoteRack lease landed on %v (rack %d, want != 0)", cross.Donor(), r)
	}
	if got := cl.Root.Stats.Get("root.delegated"); got != 1 {
		t.Fatalf("root.delegated = %d, want 1", got)
	}
	if got := cl.Root.Stats.Get("root.freed"); got != 1 {
		t.Fatalf("root.freed = %d, want 1", got)
	}
	if dels := cl.Root.Delegations(); len(dels) != 0 {
		t.Fatalf("delegation table not empty after release: %+v", dels)
	}
	for r, sub := range cl.Subs {
		if allocs := sub.Allocations(); len(allocs) != 0 {
			t.Fatalf("rack %d sub-MN still holds %d RAT rows: %+v", r, len(allocs), allocs)
		}
	}
	// The cross-rack donor got its region back.
	if idle := cl.Node(int(cross.Donor())).MemMgr.Idle(); idle != cl.Node(int(cross.Donor())).DRAMBytes {
		t.Fatalf("cross donor %v idle %d after return, want full %d",
			cross.Donor(), idle, cl.Node(int(cross.Donor())).DRAMBytes)
	}
}

// TestHierStarvedRackEscalates: with ScopeAny, a rack whose donors are
// all drained escalates to the root instead of failing — the
// memory-starved path of the tentpole.
func TestHierStarvedRackEscalates(t *testing.T) {
	cl := NewHierCluster(hierTestConfig(false))
	defer cl.Close()
	// Drain every rack-0 node before the first heartbeats land.
	for _, id := range cl.Hier.RackNodes(0) {
		if err := cl.Node(int(id)).MemMgr.Reserve(cl.Node(int(id)).MemMgr.Idle()); err != nil {
			t.Fatal(err)
		}
	}
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(1)
	var lease *MemoryLease
	done := recipient.Run("starved", func(p *sim.Proc) {
		var err error
		if lease, err = acquireMem(p, cl, recipient, 4<<20); err != nil {
			t.Errorf("borrow from starved rack: %v", err)
		}
	})
	stepUntil(t, cl, done)
	if lease == nil {
		t.Fatal("no lease")
	}
	if r, ok := cl.Hier.RackOf(lease.Donor()); !ok || r == 0 {
		t.Fatalf("starved-rack lease landed on %v (rack %d, want != 0)", lease.Donor(), r)
	}
	if got := cl.Subs[0].Stats.Get("alloc.delegated"); got != 1 {
		t.Fatalf("sub-MN alloc.delegated = %d, want 1", got)
	}
}

// TestHierRackLocalCrashStaysLocal: when a rack-local donor dies and
// the rack has surviving capacity, the rack's own sub-MN re-places the
// lease — the root MN sees no re-election and no delegation. This is
// the containment property that keeps the root's load proportional to
// cross-rack traffic, not to failures.
func TestHierRackLocalCrashStaysLocal(t *testing.T) {
	cl := NewHierCluster(hierTestConfig(true))
	defer cl.Close()
	// Keep the sub-MN node out of donor candidacy so the killed donor is
	// never the control plane (that case is TestHierKillSubMN's).
	subNode := cl.Node(int(cl.SubNode(0)))
	if err := subNode.MemMgr.Reserve(subNode.MemMgr.Idle()); err != nil {
		t.Fatal(err)
	}
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(2)
	reads := 0
	done := recipient.Run("tenant", func(p *sim.Proc) {
		lease, err := acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeLocalRack))
		if err != nil {
			t.Errorf("borrow: %v", err)
			return
		}
		donor := lease.Donor()
		if r, _ := cl.Hier.RackOf(donor); r != 0 || donor == cl.SubNode(0) {
			t.Errorf("test premise broken: donor %v", donor)
			return
		}
		cl.Eng.Schedule(sim.Millisecond, func() {
			cl.Net.SetNodeDown(donor, true)
			cl.Agents[donor].Crash()
		})
		rng := sim.NewRNG(31)
		for i := 0; i < 200; i++ {
			off := rng.Uint64n(lease.Size-2048) &^ 63
			recipient.EP.CRMA.Fill(p, lease.WindowBase+off, 2048)
			reads++
			p.Sleep(20 * sim.Microsecond)
		}
	})
	stepUntil(t, cl, done)

	if reads != 200 {
		t.Fatalf("completed %d of 200 reads", reads)
	}
	if got := cl.Subs[0].Stats.Get("recover.replaced"); got != 1 {
		t.Fatalf("sub-MN recover.replaced = %d, want 1", got)
	}
	allocs := cl.Subs[0].Allocations()
	if len(allocs) != 1 {
		t.Fatalf("rack-0 RAT has %d rows, want 1", len(allocs))
	}
	if r, ok := cl.Hier.RackOf(allocs[0].Donor); !ok || r != 0 {
		t.Fatalf("failover left the rack: new donor %v (rack %d)", allocs[0].Donor, r)
	}
	// The containment assertions: the root brokered nothing.
	for _, key := range []string{"root.borrows", "root.delegated", "root.redelegated", "root.rack_deaths"} {
		if got := cl.Root.Stats.Get(key); got != 0 {
			t.Fatalf("%s = %d, want 0 (cross-rack machinery engaged for a rack-local fault)", key, got)
		}
	}
}

// TestHierKillSubMN is the rack-scale acceptance test: a recipient in
// rack 0 streams reads through a lease delegated to rack 1 while the
// node hosting rack 1's sub-MN (which is also the lease's donor) is
// killed. The root MN must notice the missed rackbeats and re-delegate
// the rack's leases onto a surviving rack; the recipient's agent
// retargets the window and replays what was in flight, so every issued
// read completes — zero lost completions.
func TestHierKillSubMN(t *testing.T) {
	const (
		reads     = 400
		readBytes = 2048
	)
	cl := NewHierCluster(hierTestConfig(true))
	defer cl.Close()
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(2) // rack 0
	completed := 0
	var issuedAt, doneAt []sim.Time
	var lease *MemoryLease
	done := recipient.Run("tenant", func(p *sim.Proc) {
		var err error
		lease, err = acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeRemoteRack))
		if err != nil {
			t.Errorf("borrow: %v", err)
			return
		}
		// Most-idle election with equal racks breaks ties toward rack 1,
		// and distance-first donor election inside rack 1 picks its
		// nearest node to the requester — the uplink node hosting the
		// sub-MN. Killing it takes out lease backing AND control plane.
		if lease.Donor() != cl.SubNode(1) {
			t.Errorf("test premise broken: donor %v, want rack-1 sub-MN %v", lease.Donor(), cl.SubNode(1))
			return
		}
		cl.Eng.Schedule(sim.Millisecond, func() {
			cl.Net.SetNodeDown(lease.Donor(), true)
			cl.Agents[lease.Donor()].Crash()
		})
		rng := sim.NewRNG(99)
		for i := 0; i < reads; i++ {
			off := rng.Uint64n(lease.Size-readBytes) &^ 63
			issuedAt = append(issuedAt, p.Now())
			recipient.EP.CRMA.Fill(p, lease.WindowBase+off, readBytes)
			doneAt = append(doneAt, p.Now())
			completed++
			p.Sleep(20 * sim.Microsecond)
		}
	})
	stepUntil(t, cl, done)

	if completed != reads {
		t.Fatalf("completed %d of %d reads — lost completions", completed, reads)
	}
	if got := cl.Root.Stats.Get("root.rack_deaths"); got != 1 {
		t.Fatalf("root.rack_deaths = %d, want 1", got)
	}
	if got := cl.Root.Stats.Get("root.redelegated"); got != 1 {
		t.Fatalf("root.redelegated = %d, want 1", got)
	}
	dels := cl.Root.Delegations()
	if len(dels) != 1 {
		t.Fatalf("delegation table has %d rows, want 1", len(dels))
	}
	if dels[0].DonorRack == 1 {
		t.Fatalf("re-delegation stayed in the dead rack 1: %+v", dels[0])
	}
	// The surviving rack's sub-MN holds the authoritative backing row.
	// (The root is free to pick the recipient's own rack — with equal
	// idle bytes the tie-break lands there, making the lease effectively
	// rack-local after recovery.)
	backing := cl.Subs[dels[0].DonorRack].Allocations()
	if len(backing) != 1 || backing[0].Donor != dels[0].Donor || backing[0].Deleg != dels[0].ID {
		t.Fatalf("rack-2 backing row inconsistent with delegation: %+v vs %+v", backing, dels)
	}
	// The recipient's agent actually retargeted and replayed.
	if cl.Agents[recipient.ID].Stats.Get("relocate.ok") != 1 {
		t.Fatal("recipient agent never relocated the window")
	}
	// Bounded recovery: detection (rackbeat timeout + one root sweep)
	// plus one delegated grant (hot-remove) and the relocate round trip,
	// with slack — and the worst stall must exceed the detection window,
	// proving the fault actually bit mid-stream.
	cfg := hierTestConfig(true)
	bound := cfg.RackBeatTimeout + cfg.SweepInterval + 2*cl.P.HotplugOp + 2*sim.Millisecond
	var worst sim.Dur
	for i := range doneAt {
		if d := doneAt[i].Sub(issuedAt[i]); d > worst {
			worst = d
		}
	}
	if worst > bound {
		t.Fatalf("worst read stall %v exceeds recovery bound %v", worst, bound)
	}
	if worst < cfg.RackBeatTimeout {
		t.Fatalf("worst stall %v under detection timeout %v — the fault never bit", worst, cfg.RackBeatTimeout)
	}
}
