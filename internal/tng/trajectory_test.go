package tng

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lesm/internal/obs"
)

// sweepCollector records every sweep a fit reports.
type sweepCollector struct {
	mu     sync.Mutex
	sweeps []obs.SweepStats
}

func (c *sweepCollector) RecordSweep(s obs.SweepStats) {
	c.mu.Lock()
	c.sweeps = append(c.sweeps, s)
	c.mu.Unlock()
}

func (c *sweepCollector) RecordPool(obs.PoolStats) {}

// trajectoryCorpus is 128 documents of 15–34 tokens over a 60-word
// vocabulary, each skewed toward a short run of words so bigram statuses
// and topics both have structure to find, plus an empty document: four
// sampler chunks, so the chunk-ordered merge runs.
func trajectoryCorpus() [][]int {
	r := rand.New(rand.NewSource(1501))
	docs := make([][]int, 0, 129)
	for d := 0; d < 128; d++ {
		base := r.Intn(60)
		doc := make([]int, 15+r.Intn(20))
		for i := range doc {
			switch {
			case i > 0 && r.Intn(3) == 0:
				doc[i] = (doc[i-1] + 1) % 60 // recurring word pairs
			case r.Intn(4) == 0:
				doc[i] = r.Intn(60)
			default:
				doc[i] = (base + r.Intn(6)) % 60
			}
		}
		docs = append(docs, doc)
	}
	return append(docs, []int{})
}

// trajectoryDigest is an FNV-1a digest of everything a TNG fit's
// trajectory determines: the topic and bigram-status assignments, Phi and
// Rho bit for bit, and every recorded sweep's counters (wall times
// excluded).
func trajectoryDigest(m *Model, rec *sweepCollector) uint64 {
	h := fnv.New64a()
	ints := func(tag string, rows [][]int) {
		fmt.Fprintf(h, "%s%d|", tag, len(rows))
		for _, r := range rows {
			fmt.Fprintln(h, r)
		}
	}
	ints("Z", m.Z)
	ints("X", m.X)
	fmt.Fprintf(h, "Phi%d|", len(m.Phi))
	for _, row := range m.Phi {
		for _, x := range row {
			fmt.Fprintf(h, "%x,", math.Float64bits(x))
		}
		io.WriteString(h, "\n")
	}
	io.WriteString(h, "Rho|")
	for _, x := range m.Rho {
		fmt.Fprintf(h, "%x,", math.Float64bits(x))
	}
	for _, s := range rec.sweeps {
		fmt.Fprintf(h, "|%s %d %d %d %d %d %d", s.Engine, s.Sweep, s.Sweeps, s.Docs, s.Tokens, s.Changed, s.Chunks)
	}
	return h.Sum64()
}

// TestTNGTrajectoryPinned pins the exact TNG fit trajectory at P=1 and
// P=NumCPU. TestRunDeterministicAcrossP only compares parallelism levels
// with each other, so a change to the chunk loop, the PRNG stream
// consumption or the merge that moved the trajectory identically at every
// P would pass it; this digest would not. A deliberate trajectory change
// must update the value and say so; a refactor must leave it alone.
func TestTNGTrajectoryPinned(t *testing.T) {
	const want = uint64(0x1fe9fa2bd1392dbc)
	docs := trajectoryCorpus()
	for _, p := range []int{1, runtime.NumCPU()} {
		rec := &sweepCollector{}
		m, err := Run(docs, 60, Config{K: 6, Iters: 25, Seed: 1502, P: p, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.sweeps) != 25 {
			t.Fatalf("P=%d: %d sweeps recorded, want 25", p, len(rec.sweeps))
		}
		if got := trajectoryDigest(m, rec); got != want {
			t.Errorf("P=%d: trajectory digest %#x, want %#x", p, got, want)
		}
	}
}
