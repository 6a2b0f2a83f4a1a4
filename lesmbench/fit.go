package main

import (
	"fmt"
	"time"

	"lesm"
	"lesm/internal/synth"
)

// runFit is the batch analyst's workload: the whole pipeline, raw text to
// a published, reloaded, indexed snapshot, repeated on the same input for
// the run's duration. Nothing serves.
func runFit(b *bench) error {
	var in *fitInput
	var held [][]string
	if err := b.setupReps(5, func(int) (func(), error) {
		in = genFitInput(b.seed, fitDocs, synth.DomainAbstracts, 0, 20)
		held = heldoutDocs(b.seed, 300)
		return func() {}, nil
	}); err != nil {
		return err
	}
	path := snapshotPath(b.dir, "fit")
	var (
		first               [32]byte
		haveFirst           bool
		last                *fitOutput
		totals              []time.Duration
		tracedTot, plainTot []time.Duration
		layerRuns           []map[string]float64
	)
	deadline := time.Now().Add(b.dur)
	// The first pipeline warms caches and is checked but not timed; at
	// least two more are timed, so every run compares three digests.
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		var tr *tracer
		if b.traced() && i%2 == 0 {
			tr = b.tr
		}
		out, err := runPipeline(tr, uint64(i+1), in, fitParams{topics: fitTopics, seed: b.seed}, path)
		if err == nil {
			if !haveFirst {
				first, haveFirst = out.digest, true
			} else if out.digest != first {
				err = fmt.Errorf("pipeline %d published a snapshot (sha256 %x) differing from the first one's (%x) at the same seed", i+1, out.digest[:8], first[:8])
			}
		}
		b.op(err)
		if out == nil {
			continue
		}
		last = out
		if tr != nil {
			layerRuns = append(layerRuns, pipelineLayers(tr, out))
		}
		if i == 0 {
			continue
		}
		totals = append(totals, out.total)
		if tr != nil {
			tracedTot = append(tracedTot, out.total)
		} else {
			plainTot = append(plainTot, out.total)
		}
	}
	if last == nil {
		return fmt.Errorf("no pipeline completed")
	}
	if !b.traced() {
		p50 := median(durationsS(totals))
		b.setE2E("latency_p50_ms", 1000*p50, "ms")
		b.setE2E("throughput_per_s", float64(last.tokens)/p50, "1/s")
		b.note("pipeline_s %.6g s (median of n=%d timed pipelines; slowest %.6g s); throughput_per_s is corpus tokens (%d) per pipeline second",
			p50, len(totals), percentile(durationsS(totals), 100), last.tokens)
		b.reloadCycles(func() error {
			if err := lesm.Save(last.path, last.art); err != nil {
				return err
			}
			a, err := lesm.Load(last.path)
			if err != nil {
				return err
			}
			a.SearchIndex()
			return nil
		})
		return b.endToEndTail(last.art, held)
	}

	b.medianLayers(layerRuns, fitLayerUnits)
	b.setLayer("bench.trace_overhead_frac", traceOverhead(tracedTot, plainTot), "ratio")
	// The fit workload serves nothing, but a traced run reports every
	// per-layer metric, so the serving layers are measured by short probes
	// against its published snapshot.
	ls, newDur, err := startServer(last.path)
	if err != nil {
		return err
	}
	defer ls.close()
	b.setLayer("serve.new_s", newDur.Seconds(), "s")
	step, err := b.lookupProbe(ls, last.art, last.numAuthors, b.dur/6)
	if err != nil {
		return err
	}
	b.generatorLayers(step)
	if err := b.inferProbe(ls, last.art, b.dur/6); err != nil {
		return err
	}
	if err := b.swapLayer(ls, last); err != nil {
		return err
	}
	b.scrapeCheck(ls)
	return nil
}
