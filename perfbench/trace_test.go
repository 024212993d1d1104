package main

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, // overlaps the next child: the pair covers [10, 60)
		{30, 60},
		{35, 50},  // nested inside both
		{90, 120}, // sticks out of the parent: only [90, 100) counts
		{-20, 5},  // starts before the parent: only [0, 5) counts
	}
	if got, want := coveredWithin(parent, children), int64(50+10+5); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
	if got, want := selfTime(parent, children), int64(100-65); got != want {
		t.Fatalf("self = %d, want %d", got, want)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	parent := interval{100, 200}
	cases := [][]interval{
		nil,
		{{0, 1000}},
		{{100, 200}, {100, 200}, {150, 300}},
		{{120, 130}, {110, 190}, {100, 200}, {50, 250}},
	}
	for i, children := range cases {
		self := selfTime(parent, children)
		if self < 0 || self > 100 {
			t.Errorf("case %d: self = %d outside [0, 100]", i, self)
		}
	}
	if got := selfTime(parent, []interval{{0, 1000}}); got != 0 {
		t.Errorf("fully covered parent: self = %d, want 0", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("childless parent: self = %d, want 100", got)
	}
}

func TestAttributeAssignsEachSpanToItsContainingOp(t *testing.T) {
	ops := []span{
		{layer: layerClient, name: "put", start: 0, end: 100},
		{layer: layerClient, name: "get", start: 150, end: 200},
		{layer: layerClient, name: "remove", start: 200, end: 260},
	}
	spans := []span{
		{layer: layerDist, name: "upload", start: 5, end: 95},
		{layer: layerRT, name: "PUT", start: 10, end: 60},
		{layer: layerRT, name: "PUT", start: 20, end: 70}, // parallel with the first
		{layer: layerRT, name: "GET", start: 120, end: 130},
		{layer: layerDist, name: "get_file", start: 151, end: 199},
		{layer: layerDist, name: "remove_file", start: 201, end: 259},
		{layer: layerRT, name: "DELETE", start: 300, end: 310}, // after every op
	}
	groups := attribute(ops, spans)
	want := [][]string{{"upload", "PUT", "PUT"}, {"get_file"}, {"remove_file"}}
	for i, g := range groups {
		var names []string
		for _, s := range g {
			names = append(names, s.name)
		}
		if len(names) != len(want[i]) {
			t.Fatalf("op %d (%s) got %v, want %v", i, ops[i].name, names, want[i])
		}
		for j := range names {
			if names[j] != want[i][j] {
				t.Fatalf("op %d (%s) got %v, want %v", i, ops[i].name, names, want[i])
			}
		}
	}
	var children []interval
	for _, s := range groups[0][1:] {
		children = append(children, interval{s.start, s.end})
	}
	if got := selfTime(interval{groups[0][0].start, groups[0][0].end}, children); got != 90-60 {
		t.Fatalf("upload self time = %d, want 30", got)
	}
}
