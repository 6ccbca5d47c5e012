package monitor

import (
	"testing"

	"repro/internal/fabric"
)

// TestRouteQueriesZeroAlloc is the route-table gate: on a routed
// 256-node rack/spine fabric (the rack-scale cells' shape), the queries
// donor ranking and the telemetry path walk issue per candidate must be
// slice reads. A query that allocates has gone back to building
// adjacency lists or running a BFS per call. It runs in the race job
// too; the table is read-only, so the count is the same there.
func TestRouteQueriesZeroAlloc(t *testing.T) {
	h := fabric.RackSpine(32, 2, 2, 2, 2, 2)
	topo := h.Routed()
	routes := topo.Routes()
	src, dst := h.RackNodes(0)[7], h.RackNodes(31)[7] // cross-rack, via the spine
	v := &View{Topo: topo, HasTelemetry: true, linkUtil: map[[2]fabric.NodeID]float64{}}
	for cur := src; cur != dst; {
		nxt, _ := routes.NextHop(cur, dst)
		v.linkUtil[linkKey(cur, nxt)] = 0.5
		cur = nxt
	}
	if _, ok := v.PathUtil(src, dst); !ok {
		t.Fatal("PathUtil found no sampled link on the path")
	}

	var sink int
	for name, query := range map[string]func(){
		"Topology.HopCount":    func() { sink += topo.HopCount(src, dst) },
		"Topology.NeighborsOf": func() { sink += len(topo.NeighborsOf(dst)) },
		"Routes.NextHop": func() {
			nxt, _ := routes.NextHop(src, dst)
			sink += int(nxt)
		},
		"View.HopCount": func() { sink += v.HopCount(src, dst) },
		"View.PathUtil": func() {
			u, _ := v.PathUtil(src, dst)
			sink += int(u)
		},
	} {
		if allocs := testing.AllocsPerRun(1000, query); allocs != 0 {
			t.Errorf("%s allocates %.2f/op on a routed topology, want 0", name, allocs)
		}
	}
	_ = sink
}
