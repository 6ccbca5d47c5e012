package fabric

import (
	"testing"

	"repro/internal/sim"
)

// refAdjacency lists each node's neighbors in edge-insertion order,
// written independently of Topology.adjacency.
func refAdjacency(t Topology) [][]int {
	adj := make([][]int, t.N)
	for _, e := range t.Edges {
		a, b := int(e[0]), int(e[1])
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// refDistances is an independently-written BFS over a topology's edge
// list, used as ground truth for the route properties: it shares no
// code with Topology.buildRoutes.
func refDistances(t Topology) [][]int {
	adj := refAdjacency(t)
	all := make([][]int, t.N)
	for src := 0; src < t.N; src++ {
		dist := make([]int, t.N)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		frontier := []int{src}
		for len(frontier) > 0 {
			var next []int
			for _, u := range frontier {
				for _, v := range adj[u] {
					if dist[v] == -1 {
						dist[v] = dist[u] + 1
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		all[src] = dist
	}
	return all
}

// TestRackSpineProperty: any rack/spine configuration yields a
// connected network whose hop counts match an independent BFS, whose
// rack bookkeeping is consistent, and whose cross-rack paths always
// cross the spine tier.
func TestRackSpineProperty(t *testing.T) {
	rng := sim.NewRNG(4401)
	for trial := 0; trial < 60; trial++ {
		racks := 1 + rng.Intn(6)
		x, y, z := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2)
		rackSize := x * y * z
		spines := 1 + rng.Intn(3)
		uplinks := 1 + rng.Intn(rackSize)
		h := RackSpine(racks, x, y, z, spines, uplinks)
		h.Topology = h.Routed()

		if h.N != racks*rackSize+spines {
			t.Fatalf("%s: N=%d, want %d", h.Name, h.N, racks*rackSize+spines)
		}
		wantEdges := racks*len(Mesh3D(x, y, z).Edges) + racks*uplinks + spines*(spines-1)/2
		if len(h.Edges) != wantEdges {
			t.Fatalf("%s: %d edges, want %d", h.Name, len(h.Edges), wantEdges)
		}

		dist := refDistances(h.Topology)
		for a := 0; a < h.N; a++ {
			for b := 0; b < h.N; b++ {
				if dist[a][b] < 0 {
					t.Fatalf("%s: disconnected, no path %d->%d", h.Name, a, b)
				}
				if got := h.HopCount(NodeID(a), NodeID(b)); got != dist[a][b] {
					t.Fatalf("%s: HopCount(%d,%d)=%d, reference BFS says %d",
						h.Name, a, b, got, dist[a][b])
				}
			}
		}

		// Rack bookkeeping: every node is in exactly one rack or is a
		// spine, and RackNodes inverts RackOf.
		for id := 0; id < h.N; id++ {
			r, inRack := h.RackOf(NodeID(id))
			if inRack == h.IsSpine(NodeID(id)) {
				t.Fatalf("%s: node %d both/neither rack member and spine", h.Name, id)
			}
			if inRack && (r != id/rackSize) {
				t.Fatalf("%s: RackOf(%d)=%d, want %d", h.Name, id, r, id/rackSize)
			}
		}
		for r := 0; r < racks; r++ {
			for i, id := range h.RackNodes(r) {
				if got, ok := h.RackOf(id); !ok || got != r {
					t.Fatalf("%s: RackNodes(%d)[%d]=%v not in rack %d", h.Name, r, i, id, r)
				}
			}
		}

		// Cross-rack traffic must traverse the spine tier: two racks share
		// no direct edge, so any inter-rack pair is >= 2 hops apart, and
		// exactly 2 only uplink-to-uplink through one spine.
		for _, e := range h.Edges {
			ra, aRack := h.RackOf(e[0])
			rb, bRack := h.RackOf(e[1])
			if aRack && bRack && ra != rb {
				t.Fatalf("%s: direct inter-rack edge %v", h.Name, e)
			}
		}
		if racks > 1 {
			a, b := h.RackNodes(0)[rackSize-1], h.RackNodes(1)[rackSize-1]
			if got := h.HopCount(a, b); got < 2 {
				t.Fatalf("%s: cross-rack HopCount(%v,%v)=%d, want >= 2", h.Name, a, b, got)
			}
		}

		// Every spine-tier edge touches a spine switch, and together they
		// account for all rack uplinks.
		spineEdges := h.SpineEdges()
		if len(spineEdges) != racks*uplinks+spines*(spines-1)/2 {
			t.Fatalf("%s: %d spine edges, want %d", h.Name, len(spineEdges),
				racks*uplinks+spines*(spines-1)/2)
		}
		for _, e := range spineEdges {
			if !h.IsSpine(e[0]) && !h.IsSpine(e[1]) {
				t.Fatalf("%s: spine edge %v touches no spine", h.Name, e)
			}
		}

		// MaxDegree against a manual count.
		deg := make(map[NodeID]int)
		for _, e := range h.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		want := 0
		for _, d := range deg {
			if d > want {
				want = d
			}
		}
		if got := h.MaxDegree(); got != want {
			t.Fatalf("%s: MaxDegree=%d, manual count says %d", h.Name, got, want)
		}
	}
}

// checkRoutes verifies every ordered pair of topo against the reference
// BFS: hop counts and neighbor lists match; following next hops from a
// reaches b in exactly HopCount(a, b) steps, each over a real edge; and
// every next hop is the earliest-inserted neighbor of the current node
// that lies on a shortest path to b (the tie-break the switches forward
// by).
func checkRoutes(t *testing.T, topo Topology) {
	t.Helper()
	adj := refAdjacency(topo)
	dist := refDistances(topo)
	routes := topo.Routes()
	edge := make(map[[2]int]bool)
	for _, e := range topo.Edges {
		edge[[2]int{int(e[0]), int(e[1])}] = true
		edge[[2]int{int(e[1]), int(e[0])}] = true
	}
	for a := 0; a < topo.N; a++ {
		nbs := topo.NeighborsOf(NodeID(a))
		if len(nbs) != len(adj[a]) {
			t.Fatalf("%s: NeighborsOf(%d)=%v, reference %v", topo.Name, a, nbs, adj[a])
		}
		for i, nb := range nbs {
			if int(nb) != adj[a][i] {
				t.Fatalf("%s: NeighborsOf(%d)=%v, reference %v", topo.Name, a, nbs, adj[a])
			}
		}
		for b := 0; b < topo.N; b++ {
			if got := topo.HopCount(NodeID(a), NodeID(b)); got != dist[a][b] {
				t.Fatalf("%s: HopCount(%d,%d)=%d, reference BFS says %d", topo.Name, a, b, got, dist[a][b])
			}
			if _, ok := routes.NextHop(NodeID(a), NodeID(b)); ok != (a != b) {
				t.Fatalf("%s: NextHop(%d,%d) ok=%v", topo.Name, a, b, ok)
			}
			steps := 0
			for cur := a; cur != b; steps++ {
				if steps == topo.N {
					t.Fatalf("%s: next hops %d->%d loop", topo.Name, a, b)
				}
				nxt, _ := routes.NextHop(NodeID(cur), NodeID(b))
				if !edge[[2]int{cur, int(nxt)}] {
					t.Fatalf("%s: next hop %d->%v toward %d is not an edge", topo.Name, cur, nxt, b)
				}
				want := -1
				for _, nb := range adj[cur] {
					if dist[nb][b] == dist[cur][b]-1 {
						want = nb
						break
					}
				}
				if int(nxt) != want {
					t.Fatalf("%s: next hop %d->%d is %v, want earliest shortest-path neighbor %d",
						topo.Name, cur, b, nxt, want)
				}
				cur = int(nxt)
			}
			if steps != dist[a][b] {
				t.Fatalf("%s: next hops reach %d from %d in %d steps, HopCount %d", topo.Name, b, a, steps, dist[a][b])
			}
		}
	}
}

// TestRoutesMatchReference runs checkRoutes over every standard
// topology, routed once as a Network would.
func TestRoutesMatchReference(t *testing.T) {
	for _, topo := range []Topology{
		Pair(), Line(6), Star(7), FullMesh(5),
		Mesh3D(2, 2, 2), Mesh3D(3, 2, 2), Mesh3D(4, 3, 2),
		RackSpine(3, 2, 2, 1, 2, 2).Topology,
		RackSpine(4, 2, 2, 2, 3, 5).Topology,
	} {
		checkRoutes(t, topo.Routed())
	}
}

// TestUnroutedTopologyRoutesOnDemand: a Topology literal carries no
// route table, yet answers every query exactly as its routed copy does.
func TestUnroutedTopologyRoutesOnDemand(t *testing.T) {
	lit := Topology{Name: "ring-with-chord", N: 6, Edges: [][2]NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	}}
	checkRoutes(t, lit)
	routed := lit.Routed()
	for a := NodeID(0); int(a) < lit.N; a++ {
		for b := NodeID(0); int(b) < lit.N; b++ {
			if lit.HopCount(a, b) != routed.HopCount(a, b) {
				t.Fatalf("HopCount(%v,%v): unrouted %d, routed %d", a, b, lit.HopCount(a, b), routed.HopCount(a, b))
			}
			n1, ok1 := lit.Routes().NextHop(a, b)
			n2, ok2 := routed.Routes().NextHop(a, b)
			if n1 != n2 || ok1 != ok2 {
				t.Fatalf("NextHop(%v,%v): unrouted %v,%v, routed %v,%v", a, b, n1, ok1, n2, ok2)
			}
		}
	}
	if routed.Routes() != routed.Routes() {
		t.Fatal("a routed Topology rebuilt its table")
	}
}

// TestRackSpineDeterminism: identical configurations build identical
// edge lists (the property every seeded experiment rests on).
func TestRackSpineDeterminism(t *testing.T) {
	a := RackSpine(4, 2, 2, 2, 2, 2)
	b := RackSpine(4, 2, 2, 2, 2, 2)
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestRackSpineValidation: impossible configurations panic instead of
// building silently-broken fabrics.
func TestRackSpineValidation(t *testing.T) {
	bad := []func(){
		func() { RackSpine(0, 2, 2, 2, 1, 1) },
		func() { RackSpine(2, 0, 2, 2, 1, 1) },
		func() { RackSpine(2, 2, 2, 2, 0, 1) },
		func() { RackSpine(2, 2, 2, 2, 1, 0) },
		func() { RackSpine(2, 2, 2, 2, 1, 9) }, // more uplinks than rack nodes
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad config %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestLinkGbpsOverride: an uplink bandwidth override changes only that
// link's serialization time, and resetting it restores the global rate.
func TestLinkGbpsOverride(t *testing.T) {
	p := sim.Default()
	eng := sim.New()
	defer eng.Close()
	h := RackSpine(2, 2, 1, 1, 1, 1)
	if h.MaxDegree() > p.LinkPorts {
		p.LinkPorts = h.MaxDegree()
	}
	net := NewNetwork(eng, &p, h.Topology, sim.NewRNG(1))
	up := h.SpineEdges()[0]
	l := net.Link(up[0], up[1])
	if l == nil {
		t.Fatalf("no link for spine edge %v", up)
	}
	base := l.serialize(4096)
	net.SetLinkGbps(up[0], up[1], p.LinkGbps/4)
	if got := l.serialize(4096); got <= base {
		t.Fatalf("quarter-rate serialization %v not above full-rate %v", got, base)
	}
	if got, want := l.Gbps(), p.LinkGbps/4; got != want {
		t.Fatalf("Gbps()=%v, want %v", got, want)
	}
	net.SetLinkGbps(up[0], up[1], 0)
	if got := l.serialize(4096); got != base {
		t.Fatalf("reset serialization %v, want %v", got, base)
	}
	// Intra-rack links are untouched by the spine override.
	if l2 := net.Link(h.RackNodes(0)[0], h.RackNodes(0)[1]); l2.Gbps() != p.LinkGbps {
		t.Fatalf("rack link rate moved to %v", l2.Gbps())
	}
}
