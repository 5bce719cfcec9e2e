package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fill", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "solve", Start: 40, End: 70},   // overlaps fill: counted once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},   // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "kernel", Start: 10, End: 30},  // grandchild: only fill loses it
		{ID: 6, Parent: 0, Name: "op", Start: 200, End: 260},    // a second root, no children
		{ID: 7, Parent: 1, Name: "inside", Start: 45, End: 48},  // inside an interval already covered
		{ID: 8, Parent: 6, Name: "early", Start: 190, End: 210}, // clipped to the parent's start
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (40 + 20 + 10), // fill 10-50, solve's new part 50-70, late's 90-100
		2: 40 - 20,
		3: 30,
		4: 30,
		5: 20,
		6: 60 - 10,
		7: 3,
		8: 20,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if got, want := by["op"], float64(30+50)/1e9; !near(got, want) {
		t.Errorf("self time of op = %v, want %v", got, want)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	id, end := none.begin(1, 0, "x")
	end()
	if id != 0 || none.now() != 0 || none.add(1, 0, "y", 0, 5) != 0 {
		t.Fatal("a nil recorder must record nothing")
	}

	rec := newRecorder()
	root, endRoot := rec.begin(7, 0, "op")
	child, endChild := rec.begin(7, root, "layer")
	endChild()
	endRoot()
	added := rec.add(7, root, "stage", 5, 10)
	if root != 1 || child != 2 || added != 3 {
		t.Fatalf("ids %d %d %d", root, child, added)
	}
	s := rec.spans
	if s[1].Parent != root || s[1].Op != 7 || s[1].Start < s[0].Start || s[1].End > s[0].End || s[1].End < s[1].Start {
		t.Fatalf("child span %+v outside its parent %+v", s[1], s[0])
	}
	if s[2].Start != 5 || s[2].End != 15 {
		t.Fatalf("added span %+v", s[2])
	}
	if d := rec.durations("stage"); len(d) != 1 || !near(d[0], 10e-9) {
		t.Fatalf("durations %v", d)
	}
}
