package main

// The defining properties of a workload, printed on every run so that a
// workload which stopped exercising its layer shows.

import (
	"fmt"

	"ftrouting"
	"ftrouting/serve/api"
)

type properties struct {
	workload          string
	requests          int
	pairs             int // over the distinct requests of the phase
	disconnectedShare float64
	// uplinkTreeShare is the share of the phase's distinct fault sets that
	// fail an uplink on the spanning tree (conn only, -1 otherwise).
	uplinkTreeShare float64
	ctxHits         uint64
	ctxMisses       uint64
	shardLoads      uint64
	shardEvictions  uint64
	shardAcquires   int // shard pins the phase's requests needed
	// Route walks over the distinct requests.
	hops, detections, headerBits int
}

func (p *properties) ctxHitRatio() float64 {
	return ratio(float64(p.ctxHits), float64(p.ctxHits+p.ctxMisses))
}

func (p *properties) preparesPerRequest() float64 {
	return ratio(float64(p.ctxMisses), float64(p.requests))
}

func (p *properties) shardHitRatio() float64 {
	if p.shardAcquires == 0 {
		return 0
	}
	return 1 - float64(p.shardLoads)/float64(p.shardAcquires)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// describe computes the properties of one timed phase from the checked
// answers and the /v1/stats snapshots taken around it.
func describe(o *Oracle, s *system, last *setupRun, p *phaseResult, c *checkResult, before, after api.StatsResponse) *properties {
	pr := &properties{
		workload:          s.in.Workload,
		requests:          len(p.sent),
		pairs:             c.tally.Pairs,
		disconnectedShare: ratio(float64(c.tally.Disconnected), float64(c.tally.Pairs)),
		uplinkTreeShare:   -1,
		hops:              c.tally.Hops,
		detections:        c.tally.Detections,
		headerBits:        c.tally.MaxHeaderBits,
		ctxHits:           after.Cache.Hits - before.Cache.Hits,
		ctxMisses:         after.Cache.Misses - before.Cache.Misses,
	}
	distinct := map[int]bool{}
	for _, r := range p.sent {
		distinct[r.seq] = true
	}
	if s.in.Uplinks != nil {
		tree := o.TreeEdges()
		uplink := map[int32]bool{}
		for _, u := range s.in.Uplinks {
			uplink[u[0]], uplink[u[1]] = true, true
		}
		hit := 0
		for q := range distinct {
			for _, e := range s.in.Seq[q].Faults {
				if uplink[e] && tree[e] {
					hit++
					break
				}
			}
		}
		pr.uplinkTreeShare = ratio(float64(hit), float64(len(distinct)))
	}
	if after.Shards != nil && before.Shards != nil {
		pr.shardLoads = after.Shards.Loads - before.Shards.Loads
		pr.shardEvictions = after.Shards.Evictions - before.Shards.Evictions
		touched := map[int]int{}
		for q := range distinct {
			touched[q] = shardsTouched(last.manifest, s.in.Seq[q].Pairs)
		}
		for _, r := range p.sent {
			pr.shardAcquires += touched[r.seq]
		}
	}
	return pr
}

// shardsTouched counts the shards a request pins: those holding a pair
// whose endpoints share a component.
func shardsTouched(m *ftrouting.Manifest, pairs [][2]int32) int {
	ids := map[int]bool{}
	for _, pr := range pairs {
		if m.ComponentOf(pr[0]) == m.ComponentOf(pr[1]) {
			ids[m.ShardOf(pr[0])] = true
		}
	}
	return len(ids)
}

// print reports the properties, with the check each workload is defined
// by.
func (p *properties) print() {
	verdict := func(ok bool) string {
		if ok {
			return "as designed"
		}
		return "NOT AS DESIGNED"
	}
	fmt.Println("workload properties (timed phase):")
	fmt.Printf("  disconnected pair share      %.4f\n", p.disconnectedShare)
	if p.uplinkTreeShare >= 0 {
		fmt.Printf("  fault sets failing an uplink tree edge %.4f\n", p.uplinkTreeShare)
	}
	fmt.Printf("  context hit ratio            %.4f (%d hits, %d misses)\n", p.ctxHitRatio(), p.ctxHits, p.ctxMisses)
	fmt.Printf("  prepares per request         %.4f\n", p.preparesPerRequest())
	fmt.Printf("  shard loads / evictions      %d / %d\n", p.shardLoads, p.shardEvictions)
	switch p.workload {
	case "conn-hot":
		fmt.Printf("  check: no prepare in the timed phase, some pairs disconnected: %s\n",
			verdict(p.ctxMisses == 0 && p.disconnectedShare > 0))
	case "conn-cold":
		fmt.Printf("  check: one prepare per request, some pairs disconnected: %s\n",
			verdict(p.ctxMisses == uint64(p.requests) && p.disconnectedShare > 0))
	case "dist-sharded":
		fmt.Printf("  check: shards load in the timed phase: %s\n", verdict(p.shardLoads > 0))
	}
}
