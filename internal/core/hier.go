package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// HierConfig shapes a multi-rack fabric: racks of 3D-mesh nodes joined
// by an (optionally oversubscribed) spine, with one sub-MN per rack and
// a root MN on the first spine switch — the rack-scale assembly the
// sharded monitor plane (internal/monitor/shard.go) runs on.
type HierConfig struct {
	Params *sim.Params // nil: sim.Default() (LinkPorts raised to fit the spine radix)

	// Racks of RackX×RackY×RackZ mesh nodes (both required).
	Racks               int
	RackX, RackY, RackZ int

	// Spines and Uplinks shape the spine tier (0 defaults: 2 spine
	// switches, 2 uplinks per rack).
	Spines  int
	Uplinks int
	// SpineGbps overrides the bandwidth of every spine-tier link when
	// >0 — the oversubscription knob (rack-internal links keep
	// Params.LinkGbps).
	SpineGbps float64

	NodeMemBytes uint64 // 0: 1 GiB per rack node
	Seed         uint64 // 0: 1

	// HeartbeatInterval is the agent beat period (agents report to their
	// rack's sub-MN); RackBeatInterval the sub-MN → root rack report
	// period (0 defaults: 500 ms and 1 s).
	HeartbeatInterval sim.Dur
	RackBeatInterval  sim.Dur
	// HeartbeatTimeout / RackBeatTimeout override the respective death
	// thresholds when >0.
	HeartbeatTimeout sim.Dur
	RackBeatTimeout  sim.Dur
	// SweepInterval overrides every recovery loop's scan period when >0.
	SweepInterval sim.Dur

	// StartRecovery launches the failure-detection loops: each sub-MN's
	// rack-local sweep plus the root's rack-level sweep. The loops keep
	// the event queue alive; drive such clusters with RunFor or
	// step-until-done.
	StartRecovery bool

	// Admission installs the tenancy admission policy on every rack's
	// sub-MN (each gates against its own rack's pressure; delegated
	// cross-rack grants get the donor rack's restricted admit/decline
	// check). nil disables admission — the pre-tenancy grant path.
	Admission *tenancy.Config
}

// HierCluster is a running multi-rack Venice fabric.
type HierCluster struct {
	Eng  *sim.Engine
	P    *sim.Params
	Net  *fabric.Network
	Hier fabric.Hier

	// Nodes holds every node including spine switches (indexed by node
	// id); Agents is indexed the same way and nil at spine indices.
	Nodes  []*node.Node
	Agents []*monitor.Agent

	// Subs holds each rack's sub-MN, indexed by rack; Root is the root
	// MN on spine switch 0.
	Subs []*monitor.Monitor
	Root *monitor.Root

	// hub fans lease-lifecycle events out to Observe subscribers,
	// aggregated across every sub-MN and the root.
	hub eventHub
}

// NewHierCluster builds the fabric, one sub-MN per rack (on the rack's
// first node, which is also its first uplink), the root MN on spine 0,
// and starts every agent and rackbeat loop.
func NewHierCluster(cfg HierConfig) *HierCluster {
	if cfg.Racks < 1 {
		panic("core: HierConfig needs at least one rack")
	}
	spines := cfg.Spines
	if spines == 0 {
		spines = 2
	}
	uplinks := cfg.Uplinks
	if uplinks == 0 {
		uplinks = 2
		if rs := cfg.RackX * cfg.RackY * cfg.RackZ; uplinks > rs {
			uplinks = rs
		}
	}
	h := fabric.RackSpine(cfg.Racks, cfg.RackX, cfg.RackY, cfg.RackZ, spines, uplinks)
	// One route table for the whole cluster: the network, every sub-MN
	// and c.Hier all carry this routed copy.
	h.Topology = h.Routed()

	var p *sim.Params
	if cfg.Params == nil {
		d := sim.Default()
		p = &d
	} else {
		// Copy: the spine-radix adjustment below must not leak into other
		// clusters built from the caller's Params.
		cp := *cfg.Params
		p = &cp
	}
	// Spine switches routinely exceed the prototype's radix-7 embedded
	// switch; model higher-radix spine silicon rather than refusing the
	// topology.
	if deg := h.MaxDegree(); deg > p.LinkPorts {
		p.LinkPorts = deg
	}
	mem := cfg.NodeMemBytes
	if mem == 0 {
		mem = 1 << 30
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	hbInterval := cfg.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = 500 * sim.Millisecond
	}
	// Tie the death threshold to the beat period (as RackBeatTimeout is
	// below): a cluster beating every 30 s must not inherit the
	// Monitor's absolute 3 s default and read its whole fleet as dead.
	hbTimeout := cfg.HeartbeatTimeout
	if hbTimeout == 0 {
		hbTimeout = 3 * hbInterval
	}
	rbInterval := cfg.RackBeatInterval
	if rbInterval == 0 {
		rbInterval = sim.Second
	}

	eng := sim.New()
	net := fabric.NewNetwork(eng, p, h.Topology, sim.NewRNG(seed))
	c := &HierCluster{Eng: eng, P: p, Net: net, Hier: h}
	if cfg.SpineGbps > 0 {
		for _, e := range h.SpineEdges() {
			net.SetLinkGbps(e[0], e[1], cfg.SpineGbps)
		}
	}
	for i := 0; i < h.N; i++ {
		c.Nodes = append(c.Nodes, node.New(eng, p, net, fabric.NodeID(i), mem))
	}
	c.Agents = make([]*monitor.Agent, h.N)

	c.Root = monitor.NewRoot(c.Nodes[h.SpineID(0)].EP)
	c.Root.Observe(c.hub.forwardRecovery)
	if cfg.RackBeatTimeout > 0 {
		c.Root.RackBeatTimeout = cfg.RackBeatTimeout
	} else {
		c.Root.RackBeatTimeout = 3 * rbInterval
	}
	if cfg.SweepInterval > 0 {
		c.Root.SweepInterval = cfg.SweepInterval
	}

	for r := 0; r < cfg.Racks; r++ {
		subNode := c.SubNode(r)
		sub := monitor.New(c.Nodes[subNode].EP, net.Topo)
		sub.Observe(c.hub.forwardRecovery)
		sub.Admission = cfg.Admission
		sub.HeartbeatTimeout = hbTimeout
		if cfg.SweepInterval > 0 {
			sub.SweepInterval = cfg.SweepInterval
		}
		c.Subs = append(c.Subs, sub)
		for _, id := range h.RackNodes(r) {
			n := c.Nodes[id]
			a := monitor.NewAgent(n.EP, n.MemMgr, net)
			a.Interval = hbInterval
			c.Agents[id] = a
			a.Start(subNode)
		}
		sub.StartRackBeat(c.Root.Node(), r, rbInterval)
	}
	if cfg.StartRecovery {
		for _, sub := range c.Subs {
			sub.StartRecovery()
		}
		c.Root.StartRecovery()
	}
	return c
}

// SubNode reports the node hosting rack r's sub-MN (the rack's first
// node, which is also its first spine uplink).
func (c *HierCluster) SubNode(r int) fabric.NodeID { return c.Hier.RackNodes(r)[0] }

// Node returns node i.
func (c *HierCluster) Node(i int) *node.Node { return c.Nodes[i] }

// RackOf reports the rack of a node (panics for spine switches — they
// host no workloads).
func (c *HierCluster) RackOf(n *node.Node) int {
	r, ok := c.Hier.RackOf(n.ID)
	if !ok {
		panic(fmt.Sprintf("core: node %v is a spine switch, not a rack member", n.ID))
	}
	return r
}

// RunFor advances virtual time by d.
func (c *HierCluster) RunFor(d sim.Dur) { c.Eng.RunFor(d) }

// Close releases simulation resources; the cluster must not be used
// afterwards.
func (c *HierCluster) Close() { c.Eng.Close() }

// String summarizes the cluster.
func (c *HierCluster) String() string {
	return fmt.Sprintf("venice[%s, %d racks x %d nodes + %d spines, root=%v]",
		c.Net.Topo.Name, c.Hier.Racks, c.Hier.RackSize, c.Hier.Spines, c.Root.Node())
}
