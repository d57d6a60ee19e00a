package main

// The deterministic input generator. Every graph, fault set and request
// body is a pure function of (workload, seed); the program under test sees
// only what is generated here.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"ftrouting/serve/api"
)

// Edge is one undirected weighted edge; its index in Inputs.Edges is its
// edge id in the program.
type Edge struct {
	U, V int32
	W    int64
}

// Request is one query batch, with its body encoded before any timing.
type Request struct {
	Faults []int32
	Pairs  [][2]int32
	Body   []byte
}

// Inputs is everything one workload run sends to the program.
type Inputs struct {
	Workload string
	N        int
	Edges    []Edge
	// F and K are the fault bound and stretch parameter of the dist and
	// route schemes (unused by conn).
	F, K int
	// Warm is sent once at the end of every set-up, untimed. Seq is the
	// timed request sequence: request i of the timed phase is
	// Seq[i%len(Seq)], and the phase stops only at a multiple of
	// RoundLen, so every run attempts whole rounds.
	Warm     []Request
	Seq      []Request
	RoundLen int
	// Uplinks holds, per conn region, the ids of its two uplink edges.
	Uplinks [][2]int32
}

// Workload sizes. Conn: a core cluster and regional clusters, each region
// dual-homed to the core by two uplinks.
const (
	connCore       = 4096
	connRegions    = 24
	connRegionSize = 4096
	connFaults     = 8
	connHotSets    = 48
	connHotSeq     = 96
	connHotPairs   = 1000
	connColdSeq    = 640
	connColdRound  = 32
	connColdPairs  = 8
	connColdWarm   = 4
	connWarmPairs  = 8 // pairs of a conn-hot warm-up request
	// cutBias is the share of pairs with one endpoint in the region the
	// fault set's uplink failures target.
	cutBias = 0.4

	distComps     = 8
	distCompSize  = 256
	distHot       = 3 // components queried three times in every four requests
	distSetsPer   = 2
	distSeq       = 40
	distPairs     = 256
	distCrossEach = 16 // every 16th pair crosses components

	routeClusters    = 16
	routeClusterSize = 128
	routeSets        = 32
	routeSeq         = 64
	routePairs       = 16

	schemeF = 2
	schemeK = 2
)

// Workloads lists the benchmark's workload names.
var Workloads = []string{"conn-hot", "conn-cold", "dist-sharded", "route-forbidden"}

// Generate builds the inputs of one workload run.
func Generate(workload string, seed uint64) (*Inputs, error) {
	switch workload {
	case "conn-hot", "conn-cold":
		return genConn(workload, seed), nil
	case "dist-sharded":
		return genDist(seed), nil
	case "route-forbidden":
		return genRoute(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, Workloads)
}

// builder accumulates a simple graph.
type builder struct {
	rng   *rand.Rand
	edges []Edge
	seen  map[[2]int32]bool
}

func newBuilder(seed, salt uint64) *builder {
	return &builder{rng: rand.New(rand.NewPCG(seed, salt)), seen: map[[2]int32]bool{}}
}

// add inserts {u,v} unless it is a self-loop or already present, and
// returns the edge id (-1 when skipped).
func (b *builder) add(u, v int32, w int64) int32 {
	if u == v {
		return -1
	}
	k := [2]int32{min(u, v), max(u, v)}
	if b.seen[k] {
		return -1
	}
	b.seen[k] = true
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	return int32(len(b.edges) - 1)
}

// weight draws a weight in [lo, hi].
func (b *builder) weight(lo, hi int64) int64 { return lo + b.rng.Int64N(hi-lo+1) }

// cluster adds a random connected graph on vertices [base, base+size): a
// random recursive tree plus extra random edges.
func (b *builder) cluster(base int32, size, extra int, wlo, whi int64) {
	for i := 1; i < size; i++ {
		b.add(base+int32(b.rng.IntN(i)), base+int32(i), b.weight(wlo, whi))
	}
	for added := 0; added < extra; {
		u, v := base+int32(b.rng.IntN(size)), base+int32(b.rng.IntN(size))
		if b.add(u, v, b.weight(wlo, whi)) >= 0 {
			added++
		}
	}
}

// vertexIn draws a vertex of [base, base+size).
func (b *builder) vertexIn(base int32, size int) int32 { return base + int32(b.rng.IntN(size)) }

// pair draws s != t with s from [sb, sb+ss) and t from [tb, tb+ts).
func (b *builder) pair(sb int32, ss int, tb int32, ts int) [2]int32 {
	for {
		s, t := b.vertexIn(sb, ss), b.vertexIn(tb, ts)
		if s != t {
			return [2]int32{s, t}
		}
	}
}

// request encodes one batch as the /v1 QueryRequest wire form.
func request(faults []int32, pairs [][2]int32) Request {
	body, err := json.Marshal(api.QueryRequest{Pairs: pairs, Faults: faults})
	if err != nil {
		panic(err) // plain slices of integers always encode
	}
	return Request{Faults: faults, Pairs: pairs, Body: body}
}

// genConn builds the shared conn graph: core cluster [0, connCore) and
// regions after it, each region wired to the core by two uplinks.
func genConn(workload string, seed uint64) *Inputs {
	b := newBuilder(seed, 0xc0)
	n := connCore + connRegions*connRegionSize
	b.cluster(0, connCore, connCore/2, 1, 1)
	in := &Inputs{Workload: workload, N: n, Uplinks: make([][2]int32, connRegions)}
	for r := 0; r < connRegions; r++ {
		base := int32(connCore + r*connRegionSize)
		b.cluster(base, connRegionSize, connRegionSize/2, 1, 1)
		for j := 0; j < 2; {
			if id := b.add(b.vertexIn(0, connCore), b.vertexIn(base, connRegionSize), 1); id >= 0 {
				in.Uplinks[r][j] = id
				j++
			}
		}
	}
	in.Edges = b.edges
	isUplink := make(map[int32]bool, 2*connRegions)
	for _, u := range in.Uplinks {
		isUplink[u[0]], isUplink[u[1]] = true, true
	}
	firstRegionEdge := int32(connCore + connCore/2 - 1) // the core's edges come first
	// Fault set i targets one region: even sets fail both its uplinks
	// (cutting it off), odd sets one of them; random links inside the
	// regions fill the rest. Core links are left alone: a failed core tree
	// edge can hang most of the graph below it, and a handful of them
	// would decide a seed's prepare cost.
	faultSet := func(i int) (faults []int32, region int) {
		region = b.rng.IntN(connRegions)
		faults = append(faults, in.Uplinks[region][0])
		if i%2 == 0 {
			faults = append(faults, in.Uplinks[region][1])
		} else {
			faults[0] = in.Uplinks[region][b.rng.IntN(2)]
		}
		for len(faults) < connFaults {
			e := firstRegionEdge + int32(b.rng.IntN(len(in.Edges)-int(firstRegionEdge)))
			if !isUplink[e] && !contains(faults, e) {
				faults = append(faults, e)
			}
		}
		return faults, region
	}
	pairs := func(region, count int) [][2]int32 {
		out := make([][2]int32, count)
		for i := range out {
			if b.rng.Float64() < cutBias {
				out[i] = b.pair(int32(connCore+region*connRegionSize), connRegionSize, 0, n)
				if b.rng.IntN(2) == 0 {
					out[i][0], out[i][1] = out[i][1], out[i][0]
				}
			} else {
				out[i] = b.pair(0, n, 0, n)
			}
		}
		return out
	}
	if workload == "conn-hot" {
		sets := make([][]int32, connHotSets)
		regions := make([]int, connHotSets)
		for i := range sets {
			sets[i], regions[i] = faultSet(i)
		}
		for i := 0; i < connHotSeq; i++ {
			in.Seq = append(in.Seq, request(sets[i%connHotSets], pairs(regions[i%connHotSets], connHotPairs)))
		}
		// Warm-up prepares every fault set with a small batch of its own.
		for i, f := range sets {
			in.Warm = append(in.Warm, request(f, in.Seq[i].Pairs[:connWarmPairs]))
		}
		in.RoundLen = connHotSeq
		return in
	}
	for i := 0; i < connColdWarm+connColdSeq; i++ {
		f, r := faultSet(i)
		rq := request(f, pairs(r, connColdPairs))
		if i < connColdWarm {
			in.Warm = append(in.Warm, rq)
		} else {
			in.Seq = append(in.Seq, rq)
		}
	}
	in.RoundLen = connColdRound
	return in
}

// genDist builds several weighted components and a pool of fault sets
// per component. A round repeats (hot, hot, hot, cold) ten times: three
// hot components take three requests in four and stay resident under the
// half-of-the-shards budget, while each cold request goes to the next of
// the other five components in turn, which is never resident and evicts
// the previous cold one. So a quarter of the requests load a shard on
// every seed; the seed decides which components are hot.
func genDist(seed uint64) *Inputs {
	b := newBuilder(seed, 0xd1)
	in := &Inputs{Workload: "dist-sharded", N: distComps * distCompSize, F: schemeF, K: schemeK}
	compEdges := make([][]int32, distComps)
	for c := 0; c < distComps; c++ {
		lo := len(b.edges)
		b.cluster(int32(c*distCompSize), distCompSize, distCompSize/2, 1, 16)
		for e := lo; e < len(b.edges); e++ {
			compEdges[c] = append(compEdges[c], int32(e))
		}
	}
	in.Edges = b.edges
	sets := make([][][]int32, distComps)
	for c := range sets {
		for i := 0; i < distSetsPer; i++ {
			sets[c] = append(sets[c], distinctEdges(b, compEdges[c], schemeF))
		}
	}
	comps := b.rng.Perm(distComps) // comps[:distHot] are hot
	for i := 0; i < distSeq; i++ {
		c := comps[i%4]
		if i%4 == distHot {
			c = comps[distHot+(i/4)%(distComps-distHot)]
		}
		base := int32(c * distCompSize)
		pairs := make([][2]int32, distPairs)
		for j := range pairs {
			if j%distCrossEach == distCrossEach-1 {
				other := int32(((c + 1 + b.rng.IntN(distComps-1)) % distComps) * distCompSize)
				pairs[j] = b.pair(base, distCompSize, other, distCompSize)
			} else {
				pairs[j] = b.pair(base, distCompSize, base, distCompSize)
			}
		}
		in.Seq = append(in.Seq, request(sets[c][(i/4)%distSetsPer], pairs))
	}
	in.Warm, in.RoundLen = in.Seq, len(in.Seq)
	return in
}

// genRoute builds one clustered weighted component: clusters joined in a
// ring by two links each plus one chord across the ring from each cluster
// of the first half, with heavier links between
// clusters than inside them. Each fault set fails one inter-cluster link
// and one intra-cluster link.
func genRoute(seed uint64) *Inputs {
	b := newBuilder(seed, 0x7e)
	n := routeClusters * routeClusterSize
	in := &Inputs{Workload: "route-forbidden", N: n, F: schemeF, K: schemeK}
	for c := 0; c < routeClusters; c++ {
		b.cluster(int32(c*routeClusterSize), routeClusterSize, routeClusterSize/2, 1, 8)
	}
	intra := len(b.edges)
	link := func(c, d int) {
		for b.add(b.vertexIn(int32(c*routeClusterSize), routeClusterSize),
			b.vertexIn(int32(d*routeClusterSize), routeClusterSize), b.weight(8, 32)) < 0 {
		}
	}
	for c := 0; c < routeClusters; c++ {
		link(c, (c+1)%routeClusters)
		link(c, (c+1)%routeClusters)
	}
	for c := 0; c < routeClusters/2; c++ {
		link(c, c+routeClusters/2)
	}
	in.Edges = b.edges
	interIDs, intraIDs := make([]int32, 0, len(b.edges)-intra), make([]int32, 0, intra)
	for e := range b.edges {
		if e < intra {
			intraIDs = append(intraIDs, int32(e))
		} else {
			interIDs = append(interIDs, int32(e))
		}
	}
	sets := make([][]int32, routeSets)
	for i := range sets {
		sets[i] = []int32{interIDs[b.rng.IntN(len(interIDs))], intraIDs[b.rng.IntN(len(intraIDs))]}
	}
	for i := 0; i < routeSeq; i++ {
		pairs := make([][2]int32, routePairs)
		for j := range pairs {
			pairs[j] = b.pair(0, n, 0, n)
		}
		in.Seq = append(in.Seq, request(sets[i%routeSets], pairs))
	}
	in.Warm, in.RoundLen = in.Seq, routeSeq
	return in
}

// distinctEdges draws k distinct edges of pool, sorted.
func distinctEdges(b *builder, pool []int32, k int) []int32 {
	var out []int32
	for len(out) < k {
		e := pool[b.rng.IntN(len(pool))]
		if !contains(out, e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}
