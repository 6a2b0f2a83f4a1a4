package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's time source. The wall clock drives real runs;
// tests inject a virtual one, so the scheduler is tested without wall-time
// luck.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock sleeps with nanosleep(2) on the calling thread: the runtime
// timer wakes up to a millisecond late, which would swamp lookups that
// take tens of microseconds, and spinning would steal a CPU the server
// needs. A blocked thread hands its P to the server meanwhile.
type wallClock struct{ t0 time.Time }

func newWallClock() wallClock { return wallClock{t0: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (runtime preemption signals) just loops.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// request is one scheduled operation of an open-loop stream: when it is
// due and which prepared operation it performs.
type request struct {
	due  time.Duration
	kind int // workload-defined operation kind
	pick int // index into the workload's prepared inputs of that kind
	// typo, when > 0, is the seed of the query typo this request carries.
	typo int64
}

// opMix is one operation kind's share of a stream and the size of the
// prepared input pool it picks from.
type opMix struct {
	kind   int
	weight float64
	pool   int
	// typoShare of this kind's requests carry a typo.
	typoShare float64
}

// genStream builds an open-loop stream: requests evenly spaced at rate
// per second over dur, each drawing its kind and input from a PRNG keyed
// by (seed, step). It is a pure function of its arguments — the same seed
// gives the same stream — so parent and change see identical load. every
// > 0 additionally schedules an operation of kind everyKind at that
// cadence (reloads), picking inputs round-robin.
func genStream(seed int64, step int, rate float64, dur time.Duration, mix []opMix, every time.Duration, everyKind int) []request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(step)))
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	n := int(rate * dur.Seconds())
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		x := rng.Float64() * total
		m := mix[len(mix)-1]
		for _, c := range mix {
			if x < c.weight {
				m = c
				break
			}
			x -= c.weight
		}
		r := request{due: due, kind: m.kind, pick: rng.Intn(m.pool)}
		if rng.Float64() < m.typoShare {
			r.typo = 1 + rng.Int63n(1<<40)
		}
		out = append(out, r)
	}
	if every > 0 {
		for i, t := 0, every/2; t < dur; i, t = i+1, t+every {
			out = append(out, request{due: t, kind: everyKind, pick: i})
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	}
	return out
}

// streamChecksum is an FNV-1a digest of a stream, for pinning that a
// stream is a pure function of its seed.
func streamChecksum(reqs []request) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.due))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.kind))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.pick))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.typo))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sample is one executed request: when it was due, when a client started
// it, when it finished, and its error.
type sample struct {
	due, start, end time.Duration
	err             error
}

// latency is timed from the due time, so a stall that delays later sends
// is charged to them.
func (s sample) latency() time.Duration { return s.end - s.due }

// lag is how late the generator started the request.
func (s sample) lag() time.Duration { return s.start - s.due }

// runOpenLoop executes a stream with a fixed set of client workers. Each
// worker takes the next request in due order, waits until it is due
// (never sending early), runs it and records the times. When every worker
// is busy, due requests queue in the stream — the backlog — and their
// latency keeps counting from their due time. It returns when every
// request has run.
func runOpenLoop(c clock, reqs []request, workers int, do func(i int, r request) error) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				c.sleepUntil(reqs[i].due)
				s := sample{due: reqs[i].due, start: c.now()}
				s.err = do(i, reqs[i])
				s.end = c.now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosedLoop runs the stream back to back: each worker sends the next
// request as soon as its previous one returns, ignoring due times, until
// dur has passed. It returns the requests that ran, in stream order, and
// how long they took.
func runClosedLoop(c clock, reqs []request, workers int, dur time.Duration, do func(i int, r request) error) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := c.now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.now()-t0 < dur {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := sample{due: c.now(), start: c.now()}
				s.err = do(i, reqs[i])
				s.end = c.now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	return out[:n], c.now() - t0
}

// backlog reports the largest number of requests that were due but not yet
// started at any start instant (the one starting then excluded), and the number still waiting when the last
// request fell due (a backlog that is still there at the end of a step
// grew during it).
func backlog(samples []sample) (max, atEnd int) {
	if len(samples) == 0 {
		return 0, 0
	}
	dues := make([]time.Duration, len(samples))
	starts := make([]time.Duration, len(samples))
	for i, s := range samples {
		dues[i], starts[i] = s.due, s.start
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	waiting := func(t time.Duration) int {
		due := sort.Search(len(dues), func(i int) bool { return dues[i] > t })
		started := sort.Search(len(starts), func(i int) bool { return starts[i] > t })
		return due - started
	}
	for _, t := range starts {
		if n := waiting(t); n > max {
			max = n
		}
	}
	// The last request itself starts just after it falls due; only the
	// others still waiting then are backlog.
	atEnd = waiting(dues[len(dues)-1]) - 1
	if atEnd < 0 {
		atEnd = 0
	}
	return max, atEnd
}
