package lda

import (
	"time"

	"lesm/internal/par"
)

// Parallel Gibbs machinery shared by Run and RunPhrases.
//
// A sweep is one chunked pass over the documents on the shared runtime
// (internal/par). The global count tables nKV/nK are frozen for the
// duration of the pass; every chunk records its count changes in a private
// delta table, and sampling inside a chunk reads global + own-chunk delta.
// After the pass, deltas merge into the global tables in chunk order.
// Chunk boundaries and per-document PRNG streams depend only on
// (seed, n, sweep) — never on the worker count — so the sampled trajectory
// is bit-identical at any parallelism level. Across chunks the counts are
// one pass stale, the standard approximate-distributed-Gibbs trade
// (AD-LDA, Newman et al. 2009); within a chunk sampling remains fully
// collapsed.

// samplerChunks is the pass's chunk count for d documents over kTotal
// topics and v words — the shared coarse sampler policy (par.SamplerChunks:
// clamp(d/32, 1, 64), lowered until the O(topics x vocabulary) delta
// tables fit the cell budget; see the rationale there). internal/tng uses
// the same policy, so the two samplers' staleness/memory behavior cannot
// silently diverge.
func samplerChunks(d, kTotal, v int) int {
	return par.SamplerChunks(d, kTotal*v)
}

// delta is one chunk's private count-table diff against the sweep-start
// global tables. Reads during sampling go through the dense kv table;
// writes go through add, which also tracks the touched cells, so folding a
// delta back into the globals costs O(cells touched) rather than a full
// O(topics x vocabulary) scan per chunk per sweep — on realistic
// vocabularies a chunk's documents touch a tiny fraction of the table.
type delta struct {
	v       int
	kv      [][]int // [kTotal][v] topic-word count changes
	k       []int   // [kTotal] topic total changes
	touched []bool  // [kTotal*v] whether the flat cell is on the dirty list
	dirty   []int   // flat k*v+w indices with touched == true
	// ctr tallies sampling events for observability. The cores bump
	// these unconditionally (plain int adds on chunk-private state, far
	// cheaper than a branch per token); they are harvested and reset by
	// runRecorder only when a Recorder is attached, and are never read
	// by the sampling math, so they cannot perturb the trajectory.
	ctr sweepCounters
}

func newDelta(kTotal, v int) *delta {
	kv := make([][]int, kTotal)
	for k := range kv {
		kv[k] = make([]int, v)
	}
	return &delta{
		v:       v,
		kv:      kv,
		k:       make([]int, kTotal),
		touched: make([]bool, kTotal*v),
	}
}

// add applies a count change for (topic k, word w), recording the cell on
// the dirty list on first touch.
func (dl *delta) add(k, w, c int) {
	idx := k*dl.v + w
	if !dl.touched[idx] {
		dl.touched[idx] = true
		dl.dirty = append(dl.dirty, idx)
	}
	dl.kv[k][w] += c
	dl.k[k] += c
}

// applyTo folds the delta into the global tables and resets it for the
// next pass, visiting only the touched cells. Counts are integers, so
// merge order cannot change the result; we still merge in chunk order to
// honor the runtime's ordered-reduction contract.
func (dl *delta) applyTo(nKV [][]int, nK []int) {
	for _, idx := range dl.dirty {
		k, w := idx/dl.v, idx%dl.v
		if c := dl.kv[k][w]; c != 0 {
			nKV[k][w] += c
			dl.kv[k][w] = 0
		}
		dl.touched[idx] = false
	}
	dl.dirty = dl.dirty[:0]
	for k, c := range dl.k {
		nK[k] += c
		dl.k[k] = 0
	}
}

// sweepScratch is the per-chunk scratch of a sampler run — delta tables,
// probability buffers and (for the MH sampler) per-chunk proposal state —
// allocated once and reused across all sweeps (the tables are
// O(topics x vocabulary) each, too big to reallocate per sweep). applyTo
// re-zeroes each delta as it folds it into the globals.
type sweepScratch struct {
	deltas []*delta
	probs  [][]float64
	// rngs[c] is chunk c's reusable stream slot: per-document streams are
	// values reseeded in place, so a sweep performs no per-document heap
	// allocation (the pointer handed to visit would otherwise force each
	// stream to escape).
	rngs []stream
	// mh[c] is chunk c's Metropolis–Hastings state; nil unless the MH core
	// runs (see enableMH / mh.go).
	mh []*mhChunk
	// ps, when non-nil, makes gibbsPass accumulate pass timings and
	// delta-table sizes (set by newRunRecorder; nil keeps the pass free
	// of time syscalls on the unrecorded path).
	ps *passStats

	// pass carries one gibbsPass invocation's parameters to chunkFn, the
	// chunk closure built once per run — re-binding fields is free, so a
	// sweep allocates no closure either (TestNilRecorderSweepAllocFree).
	pass    passArgs
	chunkFn func(c, lo, hi int)
}

// passArgs are one gibbsPass call's parameters, held on the scratch so
// the prebuilt chunk closure can read them.
type passArgs struct {
	seed  int64
	sweep uint64
	visit func(c, di int, rng *stream, dl *delta, probs []float64)
}

func newSweepScratch(nc, kTotal, v int) *sweepScratch {
	sc := &sweepScratch{
		deltas: make([]*delta, nc),
		probs:  make([][]float64, nc),
		rngs:   make([]stream, nc),
	}
	for c := range sc.deltas {
		sc.deltas[c] = newDelta(kTotal, v)
		sc.probs[c] = make([]float64, kTotal)
	}
	sc.chunkFn = func(c, lo, hi int) {
		dl := sc.deltas[c]
		probs := sc.probs[c]
		rng := &sc.rngs[c]
		for di := lo; di < hi; di++ {
			*rng = newStream(sc.pass.seed, uint64(di), sc.pass.sweep)
			sc.pass.visit(c, di, rng, dl, probs)
		}
	}
	return sc
}

// gibbsPass runs one chunked pass (initialization or a Gibbs sweep) over d
// documents, using the chunk count the scratch was sized for. end, when
// non-nil, runs once after every chunk finishes but *before* the deltas
// merge into the global tables — the MH core joins its background alias
// rebuild there, while the globals the rebuild reads are still frozen; an
// end error aborts the pass without merging. visit samples document di of
// chunk c with its own counter-based PRNG stream derived from (seed, di,
// sweep), records count changes in the chunk's delta dl, and may use probs
// (len kTotal) as scratch. On success the chunk deltas are merged into
// nKV/nK in chunk order and reset; on cancellation the global tables are
// left unchanged and the context error is returned. A pass over zero
// documents is a no-op.
func gibbsPass(o par.Opts, seed int64, sweep uint64, d int, sc *sweepScratch,
	nKV [][]int, nK []int, end func() error,
	visit func(c, di int, rng *stream, dl *delta, probs []float64)) error {
	if d <= 0 {
		return o.Err()
	}
	var start time.Time
	if sc.ps != nil {
		start = time.Now()
	}
	nc := len(sc.deltas)
	sc.pass = passArgs{seed: seed, sweep: sweep, visit: visit}
	err := par.ForChunksN(o, d, nc, sc.chunkFn)
	sc.pass = passArgs{} // drop the closure references
	if err != nil {
		return err
	}
	if end != nil {
		if err := end(); err != nil {
			return err
		}
	}
	// ForChunksN clamps nc to d, so trailing deltas may be untouched;
	// applying an empty delta is O(topics), harmless.
	if sc.ps != nil {
		mergeStart := time.Now()
		for _, dl := range sc.deltas {
			sc.ps.cells += int64(len(dl.dirty))
			dl.applyTo(nKV, nK)
		}
		sc.ps.merge += time.Since(mergeStart)
		sc.ps.wall += time.Since(start)
		return nil
	}
	for _, dl := range sc.deltas {
		dl.applyTo(nKV, nK)
	}
	return nil
}

// alphaVec expands the document prior: cfg.Alpha per content topic, with
// the background slot (index cfg.K) inflated by BGWeight when present.
func alphaVec(cfg Config, kTotal int) []float64 {
	alpha := make([]float64, kTotal)
	for k := 0; k < cfg.K; k++ {
		alpha[k] = cfg.Alpha
	}
	if cfg.Background {
		alpha[cfg.K] = cfg.Alpha * cfg.BGWeight
	}
	return alpha
}

// Must unwraps a (model, error) pair from Run or RunPhrases, panicking on
// error. A run can only fail through a cancelled Config.Ctx, so callers
// that pass no context use Must to keep call sites expression-shaped.
func Must(m *Model, err error) *Model {
	if err != nil {
		panic(err)
	}
	return m
}
