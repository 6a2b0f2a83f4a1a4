package main

import (
	"sync"
	"time"

	"lesm/internal/obs"
)

// engineAgg sums one engine's obs.SweepStats records.
type engineAgg struct {
	sweeps                 int
	tokens, changed        int64
	wordProp, wordAcc      int64
	docProp, docAcc        int64
	rebuilds               int
	rebuild, merge, sweepT time.Duration
}

// layerRecorder aggregates the events of the program's existing obs hook
// (lesm.RunOptions.Recorder, HierarchyOptions.Recorder,
// lda.FoldInConfig.Rec). Attaching it changes no result: recording is
// observational by the obs contract.
type layerRecorder struct {
	mu      sync.Mutex
	engines map[string]*engineAgg
	// Pool telemetry: summed chunk wait and exec, and wall x workers.
	poolWait, poolExec, poolCap time.Duration
}

func newLayerRecorder() *layerRecorder {
	return &layerRecorder{engines: map[string]*engineAgg{}}
}

func (r *layerRecorder) RecordSweep(s obs.SweepStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.engines[s.Engine]
	if e == nil {
		e = &engineAgg{}
		r.engines[s.Engine] = e
	}
	e.sweeps++
	e.tokens += s.Tokens
	e.changed += s.Changed
	e.wordProp += s.WordProposals
	e.wordAcc += s.WordAccepts
	e.docProp += s.DocProposals
	e.docAcc += s.DocAccepts
	e.rebuilds += s.AliasRebuilds
	e.rebuild += s.RebuildTime
	e.merge += s.MergeTime
	e.sweepT += s.SweepTime
}

func (r *layerRecorder) RecordPool(p obs.PoolStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.poolWait += p.Wait
	r.poolExec += p.Exec
	r.poolCap += p.Wall * time.Duration(p.Workers)
}

// engine returns the sum over the named engines (missing ones count zero).
func (r *layerRecorder) engine(names ...string) engineAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out engineAgg
	for _, n := range names {
		e := r.engines[n]
		if e == nil {
			continue
		}
		out.sweeps += e.sweeps
		out.tokens += e.tokens
		out.changed += e.changed
		out.wordProp += e.wordProp
		out.wordAcc += e.wordAcc
		out.docProp += e.docProp
		out.docAcc += e.docAcc
		out.rebuilds += e.rebuilds
		out.rebuild += e.rebuild
		out.merge += e.merge
		out.sweepT += e.sweepT
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
