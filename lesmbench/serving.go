package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// stepResult is one open-loop step: its rate and what its requests saw.
type stepResult struct {
	rate    float64
	samples []sample
	// measured marks the requests whose latency the step reports (lookups,
	// not the reloads scheduled among them).
	measured   []bool
	workers    int
	failed     int
	backlogMax int
	backlogEnd int
}

func (r stepResult) latencies() []time.Duration {
	var out []time.Duration
	for i, s := range r.samples {
		if r.measured == nil || r.measured[i] {
			out = append(out, s.latency())
		}
	}
	return out
}

func (r stepResult) p99ms() float64 { return percentile(durationsMS(r.latencies()), 99) }

// passes reports whether the step meets the latency limit with no failed
// request and no growing backlog. A failed request misses the limit.
func (r stepResult) passes(limitMS float64) bool {
	return r.failed == 0 && r.p99ms() <= limitMS && r.backlogEnd <= r.workers
}

// runStep executes one open-loop step with clients() workers, counting
// every request as an operation of the run.
func (b *bench) runStep(reqs []request, rate float64, measured func(request) bool, do func(i int, r request) error) stepResult {
	samples := runOpenLoop(newWallClock(), reqs, clients(), do)
	res := stepResult{rate: rate, samples: samples, measured: make([]bool, len(reqs)), workers: clients()}
	for i, s := range samples {
		b.op(s.err)
		if s.err != nil {
			res.failed++
		}
		res.measured[i] = measured(reqs[i])
	}
	res.backlogMax, res.backlogEnd = backlog(samples)
	return res
}

// ladder is a workload's fixed rate ladder: the nominal rate (about half
// of measured capacity), the steps above it, which step counts as near
// capacity, and the p99 latency limit a step must meet.
type ladder struct {
	nominal float64
	steps   []float64
	high    int // index into steps of the near-capacity step
	limitMS float64
}

// nominalShare is how much of the run the nominal step takes: most of
// it, as the gated latency comes from it. The untraced run gives the rest
// to the saturation step and the rate ladder, the traced run to the layer
// probes.
func nominalShare(b *bench) time.Duration {
	if b.traced() {
		return b.dur * 2 / 5
	}
	return b.dur * 3 / 5
}

// windows is how many equal parts of the nominal step its latency
// percentiles are computed over; the reported figure is their median, so
// one burst of host noise moves one part, not the result.
const windows = 4

// windowed returns the median over the step's windows of the p-th latency
// percentile, and the smallest window's sample count.
func (r stepResult) windowed(p float64) (float64, int) {
	if len(r.samples) == 0 {
		return math.NaN(), 0
	}
	last := r.samples[len(r.samples)-1].due
	parts := make([][]float64, windows)
	for i, s := range r.samples {
		if r.measured[i] {
			w := int(int64(s.due) * windows / int64(last+1))
			parts[w] = append(parts[w], ms(s.latency()))
		}
	}
	vals := make([]float64, windows)
	n := len(r.samples)
	for w, part := range parts {
		vals[w] = percentile(part, p)
		if len(part) < n {
			n = len(part)
		}
	}
	return median(vals), n
}

// serveLoad reports the serving workloads' end-to-end load metrics. From
// the nominal step: the latency median, and the p90 and p99 as report
// lines. Then it runs the saturation step — the same mix sent back to back
// by clients() closed-loop workers — for throughput_per_s, and the rate
// ladder for latency_p99_ms.high and max_rps. gen makes a step's stream.
func (b *bench) serveLoad(l ladder, nominal stepResult, gen func(step int, rate float64, dur time.Duration) []request, measured func(request) bool, do func(int, request) error) {
	p50, _ := nominal.windowed(50)
	p90, _ := nominal.windowed(90)
	p99, n := nominal.windowed(99)
	b.setE2E("latency_p50_ms", p50, "ms")
	b.note("latency at nominal %.0f req/s (median over %d windows of >= %d samples each, %d in all): latency_p50_ms %.4g ms, p90 %.4g ms, latency_p99_ms %.4g ms",
		l.nominal, windows, n, len(nominal.latencies()), p50, p90, p99)

	var lags, service []time.Duration
	for i, s := range nominal.samples {
		if nominal.measured[i] {
			lags = append(lags, s.lag())
			service = append(service, s.end-s.start)
		}
	}
	b.note("nominal step: generator lag p50 %.4g ms p99 %.4g ms; send-to-answer p50 %.4g ms; backlog max %d",
		percentile(durationsMS(lags), 50), percentile(durationsMS(lags), 99), percentile(durationsMS(service), 50), nominal.backlogMax)

	rest := b.dur - nominalShare(b)
	top := l.steps[len(l.steps)-1]
	// Generated at twice the top ladder rate, the stream outlasts the step.
	satReqs := gen(90, 2*top, rest/2)
	sat, took := runClosedLoop(newWallClock(), satReqs, clients(), rest/2, do)
	done := 0
	for i, s := range sat {
		b.op(s.err)
		if s.err == nil && measured(satReqs[i]) {
			done++
		}
	}
	b.setE2E("throughput_per_s", float64(done)/took.Seconds(), "1/s")
	b.note("saturation: %d requests by %d closed-loop clients in %.3g s", len(sat), clients(), took.Seconds())

	steps := make([]stepResult, len(l.steps))
	for i, rate := range l.steps {
		steps[i] = b.runStep(gen(i+1, rate, rest/2/time.Duration(len(l.steps))), rate, measured, do)
	}
	maxRPS := 0.0
	for i, s := range steps {
		pass := s.passes(l.limitMS)
		if pass && s.rate > maxRPS {
			maxRPS = s.rate
		}
		b.note("ladder step %.0f req/s: p99 %.4g ms (n=%d) backlog max %d end %d failed %d meets %.0f ms limit: %v",
			s.rate, s.p99ms(), len(s.latencies()), s.backlogMax, s.backlogEnd, s.failed, l.limitMS, pass)
		if i == l.high {
			b.note("latency_p99_ms.high %.6g ms (step %.0f req/s, n=%d)", s.p99ms(), s.rate, len(s.latencies()))
		}
	}
	b.note("max_rps %.6g req/s (p99 limit %.0f ms)", maxRPS, l.limitMS)
}

// reloadCycles times 25 republish-and-reload cycles after the load, with
// the heap collected before each so one cycle's garbage is not charged to
// the next, and reports their median as reload_ms. It is a report line,
// not a gated metric: across seeds its spread on a shared 2-CPU host
// (0.22-0.51 of the median) exceeds any bound the benchmark may set.
func (b *bench) reloadCycles(cycle func() error) {
	var times []time.Duration
	for i := 0; i < 25; i++ {
		runtime.GC()
		t0 := time.Now()
		err := cycle()
		times = append(times, time.Since(t0))
		b.op(err)
	}
	b.note("reload_ms %.6g ms (median of %d cycles)", median(durationsMS(times)), len(times))
}

// generatorLayers reports the generator's own validity figures for a step.
func (b *bench) generatorLayers(s stepResult) {
	lags := make([]time.Duration, len(s.samples))
	for i, x := range s.samples {
		lags[i] = x.lag()
	}
	b.setLayer("bench.generator_lag_p99_ms", percentile(durationsMS(lags), 99), "ms")
	b.setLayer("bench.backlog_max", float64(s.backlogMax), "count")
}

// traceSplitOverhead reports bench.trace_overhead_frac for a traced
// step whose even-numbered requests carried spans and odd ones did not.
func (b *bench) traceSplitOverhead(s stepResult) {
	var traced, plain []time.Duration
	for i, x := range s.samples {
		if !s.measured[i] {
			continue
		}
		if i%2 == 0 {
			traced = append(traced, x.latency())
		} else {
			plain = append(plain, x.latency())
		}
	}
	b.setLayer("bench.trace_overhead_frac", traceOverhead(traced, plain), "ratio")
}

// traceOverhead is the traced requests' median latency over the
// untraced ones', minus one.
func traceOverhead(traced, untraced []time.Duration) float64 {
	t, u := median(durationsUS(traced)), median(durationsUS(untraced))
	if u == 0 || math.IsNaN(t) || math.IsNaN(u) {
		return math.NaN()
	}
	return t/u - 1
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupReps runs set-up n times and reports the median as setup_s; it
// keeps the last set-up's state and releases the earlier ones.
func (b *bench) setupReps(n int, setup func(rep int) (release func(), err error)) error {
	var times []float64
	var release func()
	for rep := 0; rep < n; rep++ {
		if release != nil {
			release()
		}
		t0 := time.Now()
		rel, err := setup(rep)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		release = rel
	}
	b.setE2E("setup_s", median(times), "s")
	return nil
}
