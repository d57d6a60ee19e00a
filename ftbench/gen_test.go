package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func encodeInputs(t *testing.T, in *Inputs) []byte {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, err := Generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 7)
		c, _ := Generate(w, 8)
		ea, eb, ec := encodeInputs(t, a), encodeInputs(t, b), encodeInputs(t, c)
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: two generations with seed 7 differ", w)
		}
		if bytes.Equal(ea, ec) {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", w)
		}
	}
}

func TestGeneratedRequestsAreValid(t *testing.T) {
	for _, w := range Workloads {
		in, err := Generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if in.RoundLen < 1 || len(in.Seq)%in.RoundLen != 0 {
			t.Errorf("%s: %d requests do not make whole rounds of %d", w, len(in.Seq), in.RoundLen)
		}
		for _, rq := range append(append([]Request(nil), in.Warm...), in.Seq...) {
			if len(rq.Pairs) == 0 {
				t.Fatalf("%s: empty request", w)
			}
			for _, p := range rq.Pairs {
				if p[0] == p[1] || p[0] < 0 || p[1] < 0 || int(p[0]) >= in.N || int(p[1]) >= in.N {
					t.Fatalf("%s: bad pair %v", w, p)
				}
			}
			for _, e := range rq.Faults {
				if e < 0 || int(e) >= len(in.Edges) {
					t.Fatalf("%s: bad fault %d", w, e)
				}
			}
			if in.F > 0 && distinctCount(rq.Faults) > in.F {
				t.Fatalf("%s: %d faults exceed the bound %d", w, distinctCount(rq.Faults), in.F)
			}
			var back struct {
				Pairs  [][2]int32 `json:"pairs"`
				Faults []int32    `json:"faults"`
			}
			if err := json.Unmarshal(rq.Body, &back); err != nil || len(back.Pairs) != len(rq.Pairs) || len(back.Faults) != len(rq.Faults) {
				t.Fatalf("%s: body does not encode the request: %v", w, err)
			}
		}
	}
}
