package main

import (
	"testing"

	"ftrouting/serve/api"
)

// diamond is 0-1-2 (weights 1) with a heavy shortcut 0-2 (weight 5) and a
// pendant 2-3: edges e0={0,1}, e1={1,2}, e2={0,2}, e3={2,3}.
func diamond() *Oracle {
	return NewOracle(4, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}, {2, 3, 1}})
}

const testUnreachable = 1 << 60

func TestOracleRejectsFlippedConnectivity(t *testing.T) {
	o := diamond()
	rq := &Request{Faults: []int32{3}, Pairs: [][2]int32{{0, 2}, {0, 3}}}
	truth := o.NewTruth(endpointConnected, rq)
	if err := truth.CheckConn(rq.Pairs, []bool{true, false}, &Tally{}); err != nil {
		t.Fatalf("true answers rejected: %v", err)
	}
	for _, got := range [][]bool{{false, false}, {true, true}} {
		if truth.CheckConn(rq.Pairs, got, &Tally{}) == nil {
			t.Errorf("flipped answer %v accepted", got)
		}
	}
}

func TestOracleRejectsEstimateBelowDistance(t *testing.T) {
	o := diamond()
	rq := &Request{Faults: []int32{3}, Pairs: [][2]int32{{0, 2}, {1, 3}}}
	truth := o.NewTruth(endpointEstimate, rq)
	// k=1: bound (8-2)(1+1) = 12.
	if err := truth.CheckEstimate(rq, 1, testUnreachable, []int64{2, testUnreachable}, &Tally{}); err != nil {
		t.Fatalf("exact answers rejected: %v", err)
	}
	if err := truth.CheckEstimate(rq, 1, testUnreachable, []int64{24, testUnreachable}, &Tally{}); err != nil {
		t.Fatalf("estimate at the stretch bound rejected: %v", err)
	}
	for _, got := range [][]int64{{1, testUnreachable}, {25, testUnreachable}, {2, 3}, {testUnreachable, testUnreachable}} {
		if truth.CheckEstimate(rq, 1, testUnreachable, got, &Tally{}) == nil {
			t.Errorf("wrong estimates %v accepted", got)
		}
	}
}

func TestOracleRejectsBadRoutes(t *testing.T) {
	o := diamond()
	// e1 fails, so 0 reaches 2 only over the shortcut: d = 5.
	rq := &Request{Faults: []int32{1}, Pairs: [][2]int32{{0, 2}}}
	truth := o.NewTruth(endpointRouteForbidden, rq)
	check := func(r api.RouteResult) error {
		return o.CheckRoute(truth, rq, 1, testUnreachable, []api.RouteResult{r}, &Tally{})
	}
	good := api.RouteResult{Reached: true, Cost: 7, Opt: 5, Trace: []int32{0, 1, 0, 2}}
	if err := check(good); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	bad := map[string]api.RouteResult{
		"uses a failed edge": {Reached: true, Cost: 5, Opt: 5, Trace: []int32{0, 1, 2}},
		"ends away from t":   {Reached: true, Cost: 6, Opt: 5, Trace: []int32{0, 2, 3}},
		"starts away from s": {Reached: true, Cost: 5, Opt: 5, Trace: []int32{1, 0, 2}},
		"wrong optimum":      {Reached: true, Cost: 5, Opt: 2, Trace: []int32{0, 2}},
		"over the bound":     {Reached: true, Cost: 61, Opt: 5, Trace: []int32{0, 2}},
		"not reached":        {Reached: false, Cost: 0, Opt: 5, Trace: []int32{0}},
	}
	for name, r := range bad {
		if check(r) == nil {
			t.Errorf("route that %s accepted", name)
		}
	}
	if o.failed[1] {
		t.Error("fault marks left set after the check")
	}
}

func TestOracleTreeEdges(t *testing.T) {
	tree := diamond().TreeEdges()
	// Breadth-first from 0 in edge-id order: 0-1 (e0), 0-2 (e2), 2-3 (e3).
	want := []bool{true, false, true, true}
	for e := range want {
		if tree[e] != want[e] {
			t.Fatalf("tree edges %v, want %v", tree, want)
		}
	}
}
