package fabric

import "fmt"

// Topology describes which node pairs have direct links. Links are
// created in both directions for every adjacency.
//
// A Topology built by Routed carries its routing table (see Routes), and
// every copy of the value shares it. A Topology without one — a literal,
// or a constructor's result before Routed — computes the same table on
// demand for each route query, which is fine for small fabrics and
// one-off queries but not for a hot path.
type Topology struct {
	Name  string
	N     int
	Edges [][2]NodeID

	routes *Routes
}

// Pair returns two directly connected nodes — the configuration of the
// §4.2 latency experiments ("directly connected, without an intermediate
// router node").
func Pair() Topology {
	return Topology{Name: "pair", N: 2, Edges: [][2]NodeID{{0, 1}}}
}

// Line returns n nodes in a chain.
func Line(n int) Topology {
	t := Topology{Name: fmt.Sprintf("line%d", n), N: n}
	for i := 0; i < n-1; i++ {
		t.Edges = append(t.Edges, [2]NodeID{NodeID(i), NodeID(i + 1)})
	}
	return t
}

// Star returns n nodes all connected to node 0.
func Star(n int) Topology {
	t := Topology{Name: fmt.Sprintf("star%d", n), N: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]NodeID{0, NodeID(i)})
	}
	return t
}

// FullMesh returns n fully interconnected nodes.
func FullMesh(n int) Topology {
	t := Topology{Name: fmt.Sprintf("full%d", n), N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	return t
}

// Mesh3D returns an x×y×z mesh. Mesh3D(2,2,2) is the prototype's
// eight-node 3D mesh (Fig. 4 / Table 1). Node (i,j,k) has id
// i + j*x + k*x*y.
func Mesh3D(x, y, z int) Topology {
	if x < 1 || y < 1 || z < 1 {
		panic("fabric: mesh dimensions must be positive")
	}
	t := Topology{Name: fmt.Sprintf("mesh%dx%dx%d", x, y, z), N: x * y * z}
	id := func(i, j, k int) NodeID { return NodeID(i + j*x + k*x*y) }
	for k := 0; k < z; k++ {
		for j := 0; j < y; j++ {
			for i := 0; i < x; i++ {
				if i+1 < x {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i+1, j, k)})
				}
				if j+1 < y {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i, j+1, k)})
				}
				if k+1 < z {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i, j, k+1)})
				}
			}
		}
	}
	return t
}

// Routed returns t carrying its routing table, building the table if t
// has none. Build it once, before the value is copied to the consumers
// that route by it (the network's switches, the monitors, their views,
// the agents): every copy then reads the one shared table.
func (t Topology) Routed() Topology {
	if t.routes == nil {
		t.routes = t.buildRoutes()
	}
	return t
}

// Routes returns t's routing table: the one Routed attached, or a
// freshly built one when t carries none.
func (t Topology) Routes() *Routes {
	if t.routes != nil {
		return t.routes
	}
	return t.buildRoutes()
}

// NeighborsOf reports the nodes directly connected to id, in
// deterministic (edge-construction) order.
func (t Topology) NeighborsOf(id NodeID) []NodeID { return t.Routes().adj[id] }

// HopCount reports the shortest-path hop count between a and b (-1 when
// the topology has no path).
func (t Topology) HopCount(a, b NodeID) int {
	r := t.Routes()
	return int(r.dist[int(a)*r.n+int(b)])
}

// adjacency builds neighbor lists (sorted by construction order, which is
// deterministic).
func (t Topology) adjacency() [][]NodeID {
	adj := make([][]NodeID, t.N)
	for _, e := range t.Edges {
		a, b := e[0], e[1]
		if a < 0 || int(a) >= t.N || b < 0 || int(b) >= t.N || a == b {
			panic(fmt.Sprintf("fabric: bad edge %v in topology %s", e, t.Name))
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// Routes is a topology's routing table: the neighbor lists, the
// shortest-path hop count between every ordered node pair, and the first
// hop of the deterministic shortest path the switches forward along.
// Distances and first hops live in flat N×N slices indexed a*N+b, so
// every query is a slice read. A Routes is never written after it is
// built, so one table is shared without locking by everything that
// routes over a fabric, including concurrently running simulations.
type Routes struct {
	n    int
	adj  [][]NodeID
	dist []int32  // dist[a*n+b]: hops a->b; -1 when unreachable
	next []NodeID // next[a*n+b]: first hop a->b; -1 when unreachable, a when a == b
}

// buildRoutes runs one BFS per source. Ties between equally short paths
// go to the source's earliest-inserted neighbor (adjacency order), which
// makes every route deterministic.
func (t Topology) buildRoutes() *Routes {
	n := t.N
	r := &Routes{n: n, adj: t.adjacency(), dist: make([]int32, n*n), next: make([]NodeID, n*n)}
	queue := make([]NodeID, 0, n)
	for src := 0; src < n; src++ {
		dist := r.dist[src*n : (src+1)*n]
		first := r.next[src*n : (src+1)*n]
		for i := range dist {
			dist[i] = -1
			first[i] = -1
		}
		dist[src] = 0
		first[src] = NodeID(src)
		queue = append(queue[:0], NodeID(src))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range r.adj[u] {
				if dist[v] != -1 {
					continue
				}
				dist[v] = dist[u] + 1
				if u == NodeID(src) {
					first[v] = v
				} else {
					first[v] = first[u]
				}
				queue = append(queue, v)
			}
		}
	}
	return r
}

// NextHop reports the first hop of the deterministic shortest path from
// a to b; ok is false when a == b or b is unreachable.
func (r *Routes) NextHop(a, b NodeID) (next NodeID, ok bool) {
	next = r.next[int(a)*r.n+int(b)]
	return next, next >= 0 && a != b
}

// unreachable reports the first ordered pair with no path between them;
// ok is false when the topology is connected.
func (r *Routes) unreachable() (a, b NodeID, ok bool) {
	for i, d := range r.dist {
		if d < 0 {
			return NodeID(i / r.n), NodeID(i % r.n), true
		}
	}
	return 0, 0, false
}
