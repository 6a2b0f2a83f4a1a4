package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"lesm"
	"lesm/internal/lda"
	"lesm/internal/serve"
	"lesm/internal/synth"
)

// The infer workload: an open loop of POST /infer against a K=200 model.
const (
	inferTopics = 200
	// inferPoolSize distinct prepared requests; the stream draws from them.
	inferPoolSize = 256
	// inferLongShare of requests carry inferLongMin..inferLongMax
	// abstract-length documents; the rest are single title-length queries.
	// These are assumptions, not measurements: no record of real /infer
	// traffic exists. 3-5 abstracts centre on the 4-abstract request whose
	// fold-in share sized this workload, and 0.75 makes long requests the
	// majority. The report prints the share actually sent.
	inferLongShare = 0.75
	inferLongMin   = 3
	inferLongMax   = 5
	kindInfer      = 0
)

// inferLadder was fixed after measuring capacity on a 2-CPU host with two
// client connections (see BENCHMARK.md).
var inferLadder = ladder{nominal: 400, steps: []float64{900, 1100, 1300, 1500}, high: 3, limitMS: 25}

// inferReq is one prepared /infer request.
type inferReq struct {
	seed int64
	docs [][]string
	body []byte
}

// prepareInferPool draws the request pool from held-out abstracts and CS
// titles: both contain words the fitted vocabulary lacks.
func prepareInferPool(seed int64, abstracts, titles [][]string) []inferReq {
	rng := rand.New(rand.NewSource(sub(seed, 6)))
	pool := make([]inferReq, inferPoolSize)
	for i := range pool {
		var docs [][]string
		if rng.Float64() < inferLongShare {
			for k := inferLongMin + rng.Intn(inferLongMax-inferLongMin+1); k > 0; k-- {
				docs = append(docs, abstracts[rng.Intn(len(abstracts))])
			}
		} else {
			docs = [][]string{titles[rng.Intn(len(titles))]}
		}
		r := inferReq{seed: rng.Int63n(1 << 31), docs: docs}
		r.body, _ = json.Marshal(map[string]any{"seed": r.seed, "docs": docs}) // strings and ints always marshal
		pool[i] = r
	}
	return pool
}

// inferLoad drives /infer and checks every answer: all responses to one
// prepared request must be byte-identical, and one of them is compared
// bit for bit with lda.FoldIn replayed on the same artifact, seed and
// sweeps.
type inferLoad struct {
	ls   *liveServer
	art  *lesm.Artifact
	pool []inferReq

	mu     sync.Mutex
	hash   map[int][32]byte
	first  map[int][]byte
	counts map[int]int
}

func newInferLoad(ls *liveServer, art *lesm.Artifact, pool []inferReq) *inferLoad {
	return &inferLoad{ls: ls, art: art, pool: pool, hash: map[int][32]byte{}, first: map[int][]byte{}, counts: map[int]int{}}
}

func (l *inferLoad) do(_ int, r request) error {
	body, _, err := l.ls.do(http.MethodPost, "/infer", l.pool[r.pick].body)
	if err != nil {
		return err
	}
	h := sha256.Sum256(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[r.pick]++
	if prev, ok := l.hash[r.pick]; ok {
		if prev != h {
			return fmt.Errorf("/infer: request %d answered differently across calls", r.pick)
		}
		return nil
	}
	l.hash[r.pick], l.first[r.pick] = h, body
	return nil
}

// foldInModel is the model the server folds into: the artifact's counts
// with the default fold-in prior, exactly as serve builds it.
func foldInModel(art *lesm.Artifact) *lda.FoldInModel {
	t := art.Topics
	return lda.FoldInModelFromCounts(t.NKV, t.NK, lda.DefaultFoldInAlpha, t.Beta)
}

// ids encodes token strings through the artifact's vocabulary, dropping
// unknown words as the server does.
func ids(art *lesm.Artifact, docs [][]string) [][]int {
	out := make([][]int, len(docs))
	for i, d := range docs {
		out[i] = []int{}
		for _, w := range d {
			if id, ok := art.Vocab.ID(w); ok {
				out[i] = append(out[i], id)
			}
		}
	}
	return out
}

// replay folds one prepared request in directly and returns theta and the
// call's duration.
func replayInfer(fm *lda.FoldInModel, art *lesm.Artifact, r inferReq, rec *layerRecorder) ([][]float64, time.Duration, error) {
	docs := ids(art, r.docs)
	cfg := lda.FoldInConfig{Seed: r.seed, Sweeps: 30}
	if rec != nil {
		// Only a non-nil recorder goes in: a nil *layerRecorder would make
		// a non-nil obs.Recorder interface.
		cfg.Rec = rec
	}
	t0 := time.Now()
	theta, err := lda.FoldIn(fm, docs, cfg)
	return theta, time.Since(t0), err
}

// verify checks every answered request against its replay. A mismatch
// fails every request that carried that input.
func (l *inferLoad) verify(b *bench, fm *lda.FoldInModel) {
	for pick, body := range l.first {
		var resp struct {
			Theta [][]float64 `json:"theta"`
		}
		err := json.Unmarshal(body, &resp)
		if err == nil {
			var want [][]float64
			want, _, err = replayInfer(fm, l.art, l.pool[pick], nil)
			if err == nil {
				err = sameBits(resp.Theta, want)
			}
		}
		if err != nil {
			b.failChecked(l.counts[pick], fmt.Errorf("/infer request %d: %v", pick, err))
		}
	}
}

func sameBits(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d thetas, want %d", len(got), len(want))
	}
	for d := range got {
		if len(got[d]) != len(want[d]) {
			return fmt.Errorf("theta[%d] has %d topics, want %d", d, len(got[d]), len(want[d]))
		}
		for k := range got[d] {
			if math.Float64bits(got[d][k]) != math.Float64bits(want[d][k]) {
				return fmt.Errorf("theta[%d][%d] = %v, replayed lda.FoldIn gives %v", d, k, got[d][k], want[d][k])
			}
		}
	}
	return nil
}

// failChecked marks n already-counted operations failed by a check made
// after they ran.
func (b *bench) failChecked(n int, err error) {
	b.failed += int64(n)
	if len(b.failures) < 10 {
		b.failures = append(b.failures, err.Error())
	} else {
		b.suppressedFailures++
	}
}

// inferLayers replays traced /infer requests directly and reports the
// fold-in and serve-overhead layer metrics. rtts maps a prepared request
// to the round trips its traced sends took.
func (b *bench) inferLayers(fm *lda.FoldInModel, art *lesm.Artifact, pool []inferReq, rtts map[int][]time.Duration) error {
	rec := newLayerRecorder()
	var batch, overhead []time.Duration
	for pick, ts := range rtts {
		_, took, err := replayInfer(fm, art, pool[pick], rec)
		if err != nil {
			return err
		}
		for _, rtt := range ts {
			batch = append(batch, took)
			overhead = append(overhead, rtt-took)
		}
	}
	f := rec.engine("foldin")
	b.setLayer("foldin.batch_p50_us", percentile(durationsUS(batch), 50), "us")
	b.setLayer("foldin.batch_p99_us", percentile(durationsUS(batch), 99), "us")
	b.setLayer("foldin.tokens_per_s", ratio(float64(f.tokens), f.sweepT.Seconds()), "1/s")
	b.setLayer("foldin.word_accept_frac", ratio(float64(f.wordAcc), float64(f.wordProp)), "ratio")
	b.setLayer("serve.infer_overhead_p50_us", percentile(durationsUS(overhead), 50), "us")
	b.setLayer("serve.infer_overhead_p99_us", percentile(durationsUS(overhead), 99), "us")

	fresh := foldInModel(art)
	t0 := time.Now()
	fresh.PrecomputeSparse()
	b.setLayer("foldin.precompute_s", time.Since(t0).Seconds(), "s")
	return nil
}

// inferState is one infer set-up: the fitted, published model and a
// server over it.
type inferState struct {
	fit  *fitOutput
	ls   *liveServer
	pool []inferReq
	held [][]string
}

// setupServing fits a model on a small corpus through the whole pipeline,
// publishes it and starts a server over it.
func (b *bench) setupServing(rep int, topics int, name string) (*fitOutput, *liveServer, time.Duration, error) {
	in := genFitInput(b.seed, serveDocs, synth.DomainAbstracts, 0, 20)
	path := snapshotPath(b.dir, name)
	fit, err := runPipeline(b.tr, uint64(rep+1), in, fitParams{topics: topics, seed: b.seed}, path)
	if err != nil {
		return nil, nil, 0, err
	}
	ls, newDur, err := startServer(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return fit, ls, newDur, nil
}

func runInfer(b *bench) error {
	var st inferState
	var fits []*fitOutput
	var news []float64
	err := b.setupReps(3, func(rep int) (func(), error) {
		fit, ls, newDur, err := b.setupServing(rep, inferTopics, "infer")
		if err != nil {
			return nil, err
		}
		held := heldoutDocs(b.seed, 300)
		st = inferState{fit: fit, ls: ls, held: held, pool: prepareInferPool(b.seed, held, titleDocs(b.seed, 200))}
		fits = append(fits, fit)
		news = append(news, newDur.Seconds())
		return func() { ls.close() }, nil
	})
	if err != nil {
		return err
	}
	defer st.ls.close()
	art := st.fit.art
	fm := foldInModel(art)
	load := newInferLoad(st.ls, art, st.pool)

	// Warm-up: connections, the fold-in model's lazily built tables, and
	// the allocator settle before anything is timed.
	mix := []opMix{{kind: kindInfer, weight: 1, pool: len(st.pool)}}
	b.runStep(genStream(b.seed, 99, inferLadder.nominal, 500*time.Millisecond, mix, 0, 0), inferLadder.nominal, all, load.do)

	reqs := genStream(b.seed, 0, inferLadder.nominal, nominalShare(b), mix, 0, 0)
	long := 0
	for _, r := range reqs {
		if len(st.pool[r.pick].docs) > 1 {
			long++
		}
	}
	b.note("traffic sent (an assumed mix, see BENCHMARK.md): %.1f%% of %d nominal requests carry %d-%d abstracts (assumed %.0f%%), the rest one title",
		100*ratio(float64(long), float64(len(reqs))), len(reqs), inferLongMin, inferLongMax, 100*inferLongShare)
	rtts := map[int][]time.Duration{}
	var rttMu sync.Mutex
	do := load.do
	if b.traced() {
		// Every other request is traced: a span around the call and its
		// round trip kept for replay. The untraced half measures the
		// tracing overhead.
		do = func(i int, r request) error {
			if i%2 == 1 {
				return load.do(i, r)
			}
			sp := b.tr.begin("bench.request", uint64(1_000_000+i), nil)
			err := load.do(i, r)
			rtt := sp.end()
			rttMu.Lock()
			rtts[r.pick] = append(rtts[r.pick], rtt)
			rttMu.Unlock()
			return err
		}
	}
	nominal := b.runStep(reqs, inferLadder.nominal, all, do)

	if b.traced() {
		b.traceSplitOverhead(nominal)
		b.generatorLayers(nominal)
		layerRuns := make([]map[string]float64, len(fits))
		for i, f := range fits {
			layerRuns[i] = pipelineLayers(b.tr, f)
		}
		b.medianLayers(layerRuns, fitLayerUnits)
		b.setLayer("serve.new_s", median(news), "s")
		if err := b.inferLayers(fm, art, st.pool, rtts); err != nil {
			return err
		}
		if _, err := b.lookupProbe(st.ls, art, st.fit.numAuthors, b.dur/6); err != nil {
			return err
		}
		if err := b.swapLayer(st.ls, st.fit); err != nil {
			return err
		}
	} else {
		gen := func(step int, rate float64, dur time.Duration) []request {
			return genStream(b.seed, step, rate, dur, mix, 0, 0)
		}
		b.serveLoad(inferLadder, nominal, gen, all, load.do)
		gen0 := st.ls.srv.Generation()
		path := snapshotPath(b.dir, "infer")
		b.reloadCycles(func() error {
			if err := lesm.Save(path, art); err != nil {
				return err
			}
			var err error
			gen0, err = st.ls.reload(gen0)
			return err
		})
	}
	load.verify(b, fm)
	b.scrapeCheck(st.ls)
	return b.endToEndTail(art, st.held)
}

func all(request) bool { return true }

// endToEndTail reports the metrics every workload shares: held-out
// perplexity of the workload's model and peak memory.
func (b *bench) endToEndTail(art *lesm.Artifact, held [][]string) error {
	if !b.traced() {
		ppl, err := heldoutPerplexity(art, held, b.seed)
		if err != nil {
			return err
		}
		b.setE2E("heldout_perplexity", ppl, "perplexity")
		b.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	}
	return nil
}

// scrapeCheck reads the server's own shed and 5xx counters. Both must be
// zero: with at most clients() connections against 4 in-flight slots
// nothing should be shed, and every failed request already counted.
func (b *bench) scrapeCheck(ls *liveServer) {
	shed, h5, err := ls.scrape()
	b.op(err)
	b.note("serve.shed %.0f count, serve.http_5xx %.0f count (from /metrics)", shed, h5)
	if b.traced() {
		b.note("(serve.shed and serve.http_5xx stay out of the JSON metrics: they are 0 unless requests fail, which \"failed\" counts)")
	}
}

// swapLayer times direct Server.Reload calls (artifact build and atomic
// swap, without decode) as serve.reload_swap_ms.
func (b *bench) swapLayer(ls *liveServer, fit *fitOutput) error {
	var times []time.Duration
	for i := 0; i < 3; i++ {
		snap, closer, err := serve.LoadSnapshot(fit.path, false)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = ls.srv.Reload(snap, closer)
		times = append(times, time.Since(t0))
		if err != nil {
			return err
		}
	}
	b.setLayer("serve.reload_swap_ms", median(durationsMS(times)), "ms")
	return nil
}
