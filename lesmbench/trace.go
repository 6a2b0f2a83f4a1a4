package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark opens it just before
// calling the layer's public function and closes it when the call returns.
// Spans of one pipeline run or one request share a trace id; Parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the run ends so
// file output never lands inside a measured interval.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// activeSpan is an open span. A nil *activeSpan (from a nil tracer) is a
// valid no-op, so call sites need no tracing branches.
type activeSpan struct {
	t *tracer
	s span
}

// begin opens a span. It is safe on a nil tracer.
func (t *tracer) begin(name string, trace uint64, parent *activeSpan) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	var p uint64
	if parent != nil {
		p = parent.s.ID
	}
	return &activeSpan{t: t, s: span{Name: name, Trace: trace, ID: id, Parent: p, Start: int64(time.Since(t.epoch))}}
}

// end closes the span and returns its duration (0 on a nil span).
func (a *activeSpan) end() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return a.s.dur()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// trace returns the closed spans of one trace id.
func (t *tracer) trace(id uint64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span as one JSON object per line, in start order.
func (t *tracer) writeFile(path string) error {
	spans := t.all()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w *bufio.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover. Children may overlap
// each other (an MH alias rebuild running alongside sampling) and may
// stick out of the parent; only the union of their intervals clipped to
// the parent is subtracted, so overlapping work is never subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// layerSelfTimes sums self times by layer.
func layerSelfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range selfTimes(spans) {
		out[span{Name: name}.layer()] += d
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}
