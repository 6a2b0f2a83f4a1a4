package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a virtual clock: sleeping jumps to the wake-up time and
// work advances it explicitly, so schedules are tested without wall time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

var testMix = []opMix{
	{kind: 1, weight: 0.4, pool: 100, typoShare: 0.3},
	{kind: 2, weight: 0.3, pool: 100},
	{kind: 3, weight: 0.3, pool: 7},
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	a := genStream(42, 0, 1500, 2*time.Second, testMix, 500*time.Millisecond, 9)
	b := genStream(42, 0, 1500, 2*time.Second, testMix, 500*time.Millisecond, 9)
	if len(a) != 3004 {
		t.Fatalf("stream has %d requests, want 3000 lookups + 4 reloads", len(a))
	}
	if streamChecksum(a) != streamChecksum(b) {
		t.Fatal("same seed gave different streams")
	}
	// Pinned: a change to the generator changes every benchmark input, so
	// it must be deliberate.
	if got, want := streamChecksum(a), uint64(0x5358da58de211a4c); got != want {
		t.Errorf("stream checksum %#x, pinned %#x", got, want)
	}
	if streamChecksum(genStream(43, 0, 1500, 2*time.Second, testMix, 500*time.Millisecond, 9)) == streamChecksum(a) {
		t.Error("different seeds gave the same stream")
	}
	if streamChecksum(genStream(42, 1, 1500, 2*time.Second, testMix, 500*time.Millisecond, 9)) == streamChecksum(a) {
		t.Error("different steps gave the same stream")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("request %d due %v before request %d due %v", i, a[i].due, i-1, a[i-1].due)
		}
	}
}

func TestStreamMixShares(t *testing.T) {
	reqs := genStream(1, 0, 10000, 2*time.Second, testMix, 0, 0)
	counts := map[int]int{}
	typos := 0
	for _, r := range reqs {
		counts[r.kind]++
		if r.typo != 0 {
			if r.kind != 1 {
				t.Fatalf("kind %d request carries a typo", r.kind)
			}
			typos++
		}
	}
	share := func(n int) float64 { return float64(n) / float64(len(reqs)) }
	if s := share(counts[1]); s < 0.38 || s > 0.42 {
		t.Errorf("kind 1 share %.3f, want ~0.40", s)
	}
	if s := float64(typos) / float64(counts[1]); s < 0.27 || s > 0.33 {
		t.Errorf("typo share %.3f, want ~0.30", s)
	}
}

// stream returns n requests due every gap.
func stream(n int, gap time.Duration) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = request{due: time.Duration(i) * gap}
	}
	return out
}

func TestOpenLoopUnderCapacity(t *testing.T) {
	c := &fakeClock{}
	samples := runOpenLoop(c, stream(10, 10*time.Millisecond), 1, func(int, request) error {
		c.advance(4 * time.Millisecond)
		return nil
	})
	for i, s := range samples {
		if s.lag() != 0 || s.latency() != 4*time.Millisecond {
			t.Errorf("request %d: lag %v latency %v, want 0 and 4ms", i, s.lag(), s.latency())
		}
	}
	if max, end := backlog(samples); max != 0 || end != 0 {
		t.Errorf("backlog max %d end %d, want 0 0", max, end)
	}
}

func TestOpenLoopOverCapacityTimesFromDue(t *testing.T) {
	c := &fakeClock{}
	// 15ms of work every 10ms: each request starts 5ms later than the
	// previous one did relative to its due time, and its latency counts
	// that wait.
	samples := runOpenLoop(c, stream(10, 10*time.Millisecond), 1, func(int, request) error {
		c.advance(15 * time.Millisecond)
		return nil
	})
	for i, s := range samples {
		wantLag := time.Duration(i) * 5 * time.Millisecond
		if s.lag() != wantLag || s.latency() != wantLag+15*time.Millisecond {
			t.Errorf("request %d: lag %v latency %v, want %v and %v", i, s.lag(), s.latency(), wantLag, wantLag+15*time.Millisecond)
		}
	}
	// Starts at 0,15,...,135; dues at 0,10,...,90. At t=90 three requests
	// are due and unstarted; when the last fell due, two besides it waited.
	max, end := backlog(samples)
	if max != 3 || end != 2 {
		t.Errorf("backlog max %d end %d, want 3 2", max, end)
	}
	st := stepResult{samples: samples, measured: make([]bool, len(samples)), workers: 1, backlogMax: max, backlogEnd: end}
	for i := range st.measured {
		st.measured[i] = true
	}
	if p := st.p99ms(); p != 60 {
		t.Errorf("p99 %.1f ms, want 60 (the last request: 45ms late + 15ms)", p)
	}
	if st.passes(1000) {
		t.Error("a step whose backlog grows passed")
	}
	st.workers = 2 // a backlog of two is what two workers can hold
	if !st.passes(60) || st.passes(59) {
		t.Error("the 60ms p99 must meet a 60ms limit and miss a 59ms one")
	}
}

func TestOpenLoopRunsEveryRequestOnce(t *testing.T) {
	c := &fakeClock{}
	var mu sync.Mutex
	seen := map[int]int{}
	samples := runOpenLoop(c, stream(200, time.Millisecond), 2, func(i int, _ request) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if len(samples) != 200 || len(seen) != 200 {
		t.Fatalf("%d samples, %d distinct requests run, want 200", len(samples), len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d ran %d times", i, n)
		}
	}
	for i, s := range samples {
		if s.start < s.due {
			t.Errorf("request %d sent early: start %v due %v", i, s.start, s.due)
		}
	}
}
