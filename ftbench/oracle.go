package main

// The independent answer oracle: breadth-first search and Dijkstra over
// the generated edge list, sharing no code with the program. Each check
// returns an error naming the first answer that disagrees with the truth
// or with the theorem's bound.

import (
	"container/heap"
	"fmt"
	"math"

	"ftrouting/serve/api"
)

// inf is the oracle's distance of disconnected pairs.
const inf = math.MaxInt64

type arc struct {
	to int32
	e  int32
	w  int64
}

// Oracle answers queries on G∖F exactly.
type Oracle struct {
	n      int
	off    []int32 // arcs of v are adj[off[v]:off[v+1]]
	adj    []arc
	failed []bool // per edge id, set for the faults of the current query
}

// NewOracle indexes the edge list.
func NewOracle(n int, edges []Edge) *Oracle {
	o := &Oracle{n: n, off: make([]int32, n+1), adj: make([]arc, 2*len(edges)), failed: make([]bool, len(edges))}
	for _, e := range edges {
		o.off[e.U+1]++
		o.off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		o.off[v+1] += o.off[v]
	}
	next := append([]int32(nil), o.off[:n]...)
	for id, e := range edges {
		o.adj[next[e.U]] = arc{to: e.V, e: int32(id), w: e.W}
		next[e.U]++
		o.adj[next[e.V]] = arc{to: e.U, e: int32(id), w: e.W}
		next[e.V]++
	}
	return o
}

func (o *Oracle) setFaults(faults []int32, on bool) {
	for _, e := range faults {
		o.failed[e] = on
	}
}

// Components labels every vertex with its component of G∖F.
func (o *Oracle) Components(faults []int32) []int32 {
	o.setFaults(faults, true)
	defer o.setFaults(faults, false)
	comp := make([]int32, o.n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, o.n)
	for root := int32(0); root < int32(o.n); root++ {
		if comp[root] >= 0 {
			continue
		}
		comp[root] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, a := range o.adj[o.off[v]:o.off[v+1]] {
				if !o.failed[a.e] && comp[a.to] < 0 {
					comp[a.to] = root
					queue = append(queue, a.to)
				}
			}
		}
	}
	return comp
}

// TreeEdges marks the edges of the breadth-first spanning tree from
// vertex 0 that scans arcs in edge-id order: the spanning tree the conn
// scheme labels on a connected graph.
func (o *Oracle) TreeEdges() []bool {
	tree := make([]bool, len(o.failed))
	seen := make([]bool, o.n)
	seen[0] = true
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range o.adj[o.off[v]:o.off[v+1]] {
			if !seen[a.to] {
				seen[a.to], tree[a.e] = true, true
				queue = append(queue, a.to)
			}
		}
	}
	return tree
}

// Distances returns d_{G∖F}(s, ·), inf for unreachable vertices.
func (o *Oracle) Distances(s int32, faults []int32) []int64 {
	o.setFaults(faults, true)
	defer o.setFaults(faults, false)
	dist := make([]int64, o.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	h := &distHeap{{v: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range o.adj[o.off[it.v]:o.off[it.v+1]] {
			if d := it.d + a.w; !o.failed[a.e] && d < dist[a.to] {
				dist[a.to] = d
				heap.Push(h, item{v: a.to, d: d})
			}
		}
	}
	return dist
}

type item struct {
	v int32
	d int64
}

type distHeap []item

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// pairDistances computes d_{G∖F}(s, t) for every pair, one Dijkstra per
// distinct source.
func (o *Oracle) pairDistances(faults []int32, pairs [][2]int32) []int64 {
	bySource := map[int32][]int64{}
	out := make([]int64, len(pairs))
	for i, p := range pairs {
		d, ok := bySource[p[0]]
		if !ok {
			d = o.Distances(p[0], faults)
			bySource[p[0]] = d
		}
		out[i] = d[p[1]]
	}
	return out
}

// stretchBound is the (8k-2)(|F|+1) bound of Theorems 1.4 and 5.3.
func stretchBound(k int, faults []int32) int64 {
	return int64(8*k-2) * int64(distinctCount(faults)+1)
}

func distinctCount(faults []int32) int {
	seen := map[int32]bool{}
	for _, e := range faults {
		seen[e] = true
	}
	return len(seen)
}

// Truth is the oracle's view of one request, computed once and used to
// check every response to it.
type Truth struct {
	comp []int32 // conn: component labels of G∖F
	dist []int64 // dist, route: d_{G∖F}(s, t) per pair
}

// NewTruth computes what a request's answers are checked against.
func (o *Oracle) NewTruth(endpoint string, rq *Request) *Truth {
	if endpoint == endpointConnected {
		return &Truth{comp: o.Components(rq.Faults)}
	}
	return &Truth{dist: o.pairDistances(rq.Faults, rq.Pairs)}
}

// Tally sums the defining properties of checked answers.
type Tally struct {
	Pairs, Disconnected int
	// StretchSum and Connected give the realized stretch mean over the
	// connected pairs of dist and route answers.
	StretchSum float64
	Connected  int
	// Route walk statistics.
	Hops, Detections, MaxHeaderBits int
}

// CheckConn checks connectivity answers: true iff s and t share a
// component of G∖F.
func (tr *Truth) CheckConn(pairs [][2]int32, got []bool, t *Tally) error {
	if len(got) != len(pairs) {
		return fmt.Errorf("%d answers for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		want := tr.comp[p[0]] == tr.comp[p[1]]
		if got[i] != want {
			return fmt.Errorf("pair %d (%d,%d): connected=%v, oracle says %v", i, p[0], p[1], got[i], want)
		}
		t.Pairs++
		if !want {
			t.Disconnected++
		}
	}
	return nil
}

// CheckEstimate checks distance estimates: unreachable iff d = ∞,
// otherwise d <= estimate <= (8k-2)(|F|+1)·d.
func (tr *Truth) CheckEstimate(rq *Request, k int, unreachable int64, got []int64, t *Tally) error {
	if len(got) != len(rq.Pairs) {
		return fmt.Errorf("%d estimates for %d pairs", len(got), len(rq.Pairs))
	}
	bound := stretchBound(k, rq.Faults)
	for i, p := range rq.Pairs {
		d, est := tr.dist[i], got[i]
		t.Pairs++
		if d == inf {
			t.Disconnected++
			if est != unreachable {
				return fmt.Errorf("pair %d (%d,%d): estimate %d for a disconnected pair", i, p[0], p[1], est)
			}
			continue
		}
		if est == unreachable || est < d || est > bound*d {
			return fmt.Errorf("pair %d (%d,%d): estimate %d outside [%d, %d·%d]", i, p[0], p[1], est, d, bound, d)
		}
		t.Connected++
		t.StretchSum += float64(est) / float64(d)
	}
	return nil
}

// CheckRoute checks forbidden-set routes: reached iff d < ∞, Opt = d,
// the trace is a walk from s that uses no failed edge and ends at t when
// reached, and d <= Cost <= (8k-2)(|F|+1)·d.
func (o *Oracle) CheckRoute(tr *Truth, rq *Request, k int, unreachable int64, got []api.RouteResult, t *Tally) error {
	if len(got) != len(rq.Pairs) {
		return fmt.Errorf("%d routes for %d pairs", len(got), len(rq.Pairs))
	}
	o.setFaults(rq.Faults, true)
	defer o.setFaults(rq.Faults, false)
	bound := stretchBound(k, rq.Faults)
	for i, p := range rq.Pairs {
		d, r := tr.dist[i], &got[i]
		if err := o.checkWalk(p, r.Trace, r.Reached); err != nil {
			return fmt.Errorf("pair %d (%d,%d): %v", i, p[0], p[1], err)
		}
		t.Pairs++
		t.Hops += r.Hops
		t.Detections += r.Detections
		t.MaxHeaderBits = max(t.MaxHeaderBits, r.MaxHeaderBits)
		if d == inf {
			t.Disconnected++
			if r.Reached || r.Opt != unreachable {
				return fmt.Errorf("pair %d (%d,%d): reached=%v opt=%d for a disconnected pair", i, p[0], p[1], r.Reached, r.Opt)
			}
			continue
		}
		if !r.Reached || r.Opt != d || r.Cost < d || r.Cost > bound*d {
			return fmt.Errorf("pair %d (%d,%d): reached=%v opt=%d cost=%d, oracle d=%d bound %d·d",
				i, p[0], p[1], r.Reached, r.Opt, r.Cost, d, bound)
		}
		t.Connected++
		t.StretchSum += float64(r.Cost) / float64(d)
	}
	return nil
}

// checkWalk checks that trace starts at s, steps only along edges that
// did not fail, and ends at t when the route claims to have reached it.
// The failed-edge marks of the request must be set.
func (o *Oracle) checkWalk(p [2]int32, trace []int32, reached bool) error {
	if len(trace) == 0 || trace[0] != p[0] {
		return fmt.Errorf("trace %v does not start at s", head(trace))
	}
	for j := 1; j < len(trace); j++ {
		u, v := trace[j-1], trace[j]
		if u < 0 || int(u) >= o.n || v < 0 || int(v) >= o.n || !o.liveEdge(u, v) {
			return fmt.Errorf("trace step %d (%d->%d) uses no live edge", j, u, v)
		}
	}
	if reached && trace[len(trace)-1] != p[1] {
		return fmt.Errorf("trace ends at %d, not t", trace[len(trace)-1])
	}
	return nil
}

// liveEdge reports whether some edge {u,v} did not fail.
func (o *Oracle) liveEdge(u, v int32) bool {
	for _, a := range o.adj[o.off[u]:o.off[u+1]] {
		if a.to == v && !o.failed[a.e] {
			return true
		}
	}
	return false
}

func head(trace []int32) []int32 {
	if len(trace) > 4 {
		return trace[:4]
	}
	return trace
}
