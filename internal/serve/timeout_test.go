package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRouteTimeoutQueuedInfer: a request parked behind the in-flight
// semaphore must drop out of the queue when its per-route timeout expires
// — the slot holder is unaffected and the waiter gets a 503.
func TestRouteTimeoutQueuedInfer(t *testing.T) {
	ts, s := newTestServerPair(t, Options{MaxInFlight: 1, RouteTimeout: 100 * time.Millisecond})
	s.inferSem <- struct{}{} // the only slot stays busy for the whole test
	defer func() { <-s.inferSem }()

	start := time.Now()
	status, out := postInfer(t, ts.URL, inferBody(t, 1, [][]int{{0, 1, 2}}, 3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queued request past its timeout: status %d (%v)", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "inference slot") {
		t.Fatalf("unexpected error message: %v", out)
	}
	// It waited out the timeout (not shed instantly) but not forever.
	if d := time.Since(start); d < 50*time.Millisecond || d > 10*time.Second {
		t.Fatalf("queued timeout fired after %s", d)
	}
}

// chunkGateCtx lets fold-in sample its first chunk, then holds the
// sampler at its next between-chunk cancellation check until the wrapped
// (route-deadline) context is done. A deadline that fires there has
// provably landed mid-sampling, however long the request took to decode.
type chunkGateCtx struct {
	context.Context
	checks atomic.Int32
}

func (c *chunkGateCtx) Err() error {
	if c.checks.Add(1) == 2 {
		<-c.Done()
	}
	return c.Context.Err()
}

// newHookedServer is newTestServerPair with the sampling-context hook
// installed before the listener starts, so handler goroutines see it.
func newHookedServer(t *testing.T, opt Options, hook func(context.Context) context.Context) *httptest.Server {
	t.Helper()
	s, err := New(testSnapshot(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	s.sampleCtx = hook
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// TestRouteTimeoutAbortsRunningFoldIn: the timeout must cancel fold-in
// work already sampling, not just queued waiters — the batch aborts at its
// next inter-chunk cancellation check and answers 503.
func TestRouteTimeoutAbortsRunningFoldIn(t *testing.T) {
	gates := make(chan *chunkGateCtx, 1)
	ts := newHookedServer(t, Options{
		RouteTimeout: 150 * time.Millisecond,
		// P=1 runs the fold-in chunks serially, so the gate's second
		// cancellation check comes after chunk 0 finished sampling.
		P: 1,
	}, func(ctx context.Context) context.Context {
		g := &chunkGateCtx{Context: ctx}
		gates <- g
		return g
	})
	// Eight documents are eight fold-in chunks; the body is small, so
	// decoding it takes a negligible share of the 150ms deadline.
	ids := make([][]int, 8)
	for i := range ids {
		ids[i] = []int{i % 10, (i + 1) % 10, (i + 2) % 10}
	}
	start := time.Now()
	status, out := postInfer(t, ts.URL, inferBody(t, 7, ids, 20))
	elapsed := time.Since(start)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("gated request: status %d after %s (%v)", status, elapsed, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "aborted") {
		t.Fatalf("expected a mid-sampling abort, got: %v", out)
	}
	var g *chunkGateCtx
	select {
	case g = <-gates:
	default:
		t.Fatal("fold-in never started sampling")
	}
	if n := g.checks.Load(); n < 2 {
		t.Fatalf("fold-in made %d cancellation checks, want >= 2 (abort before the first chunk sampled)", n)
	}
	// The gate waits for the route deadline, so the abort must come from
	// the timeout reaching the sampler, not from anything slower.
	if elapsed > 10*time.Second {
		t.Fatalf("abort took %s — cancellation not reaching the sampler", elapsed)
	}
}

// TestRouteTimeoutBeforeSampling: a deadline that has already expired
// when the body is decoded is answered at once with its own 503, and no
// sampling starts.
func TestRouteTimeoutBeforeSampling(t *testing.T) {
	ts, s := newTestServerPair(t, Options{RouteTimeout: time.Nanosecond})
	status, out := postInfer(t, ts.URL, inferBody(t, 1, [][]int{{0, 1, 2}}, 3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("expired request: status %d (%v)", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "deadline exceeded before sampling") {
		t.Fatalf("unexpected error message: %v", out)
	}
	if n := s.inferRequests.Load(); n != 0 {
		t.Fatalf("%d /infer requests reached fold-in past their deadline", n)
	}
}

// TestRouteTimeoutLeavesFastRoutesAlone: structure lookups answer far
// inside any reasonable timeout; instrumenting them with a deadline must
// not break them.
func TestRouteTimeoutLeavesFastRoutesAlone(t *testing.T) {
	ts := newTestServer(t, Options{RouteTimeout: 2 * time.Second})
	for _, route := range structureRoutes {
		getJSON(t, ts.URL+route, http.StatusOK)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	scrape(t, ts.URL)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0, 1}}}, http.StatusOK)
}
