package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimesSubtractOverlappingChildrenOnce(t *testing.T) {
	// A fit span whose sampling overlaps an MH alias rebuild running
	// alongside it, then a merge; sampling has a checkpoint child, and a
	// late child sticks out past the fit's end.
	spans := []span{
		{Name: "lda.fit", ID: 1, Start: 0, End: 100},
		{Name: "lda.sample", ID: 2, Parent: 1, Start: 10, End: 80},
		{Name: "lda.alias_rebuild", ID: 3, Parent: 1, Start: 20, End: 60},
		{Name: "lda.merge", ID: 4, Parent: 1, Start: 85, End: 95},
		{Name: "store.checkpoint", ID: 5, Parent: 2, Start: 30, End: 40},
		{Name: "bench.late", ID: 6, Parent: 1, Start: 90, End: 120},
		{Name: "lda.fit", ID: 7, Start: 200, End: 210}, // a second root of the same name
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 minus the union [10,80] u [85,100] = 70 + 15.
		"lda.fit":           15 + 10,
		"lda.sample":        60,
		"lda.alias_rebuild": 40,
		"lda.merge":         10,
		"store.checkpoint":  10,
		"bench.late":        30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	byLayer := layerSelfTimes(spans)
	if byLayer["lda"] != 25+60+40+10 || byLayer["store"] != 10 || byLayer["bench"] != 30 {
		t.Errorf("self time by layer %v", byLayer)
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{{Start: 50, End: 120}, {Start: 110, End: 130}, {Start: 150, End: 160}, {Start: 190, End: 300}, {Start: 300, End: 400}}
	// [100,130] (two overlapping kids, one clipped) + [150,160] + [190,200].
	if got := covered(parent, kids); got != 30+10+10 {
		t.Errorf("covered %v, want 50", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children %v, want 0", got)
	}
}

func TestTracerSpansAndJSONL(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.pipeline", 7, nil)
	child := tr.begin("store.save", 7, root)
	child.end()
	root.end()
	tr.begin("bench.request", 8, nil).end()

	spans := tr.trace(7)
	if len(spans) != 2 {
		t.Fatalf("trace 7 has %d spans, want 2", len(spans))
	}
	var r, c span
	for _, s := range spans {
		if s.Name == "bench.pipeline" {
			r = s
		} else {
			c = s
		}
	}
	if c.Parent != r.ID || r.Parent != 0 || c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v is not nested in root %+v", c, r)
	}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeSpans(w, spans); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	sc := bufio.NewScanner(&buf)
	var back []span
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != len(spans) || back[0] != spans[0] || back[1] != spans[1] {
		t.Errorf("JSONL round trip gave %+v, want %+v", back, spans)
	}

	var nilTracer *tracer
	if d := nilTracer.begin("x", 1, nil).end(); d != 0 {
		t.Errorf("nil tracer span lasted %v", d)
	}
}
