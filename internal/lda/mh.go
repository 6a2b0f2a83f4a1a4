package lda

import (
	"time"

	"lesm/internal/linalg"
	"lesm/internal/par"
)

// The Metropolis–Hastings sampling core (Config.Sampler "mh"): LightLDA-
// style alias proposals (Yuan et al., WWW 2015; AliasLDA, Li et al., KDD
// 2014) for the collapsed Gibbs conditional
//
//	p(k) ∝ (n_dk + α_k)(n_kw + β) / (n_k + Vβ).
//
// The numerator is a product of a document side n_dk + α_k and a word
// side n_kw + β. The word side does not depend on the document, so one
// Walker alias table per word can serve it; the document side is the
// document's own assignment list plus a static α table. Sampling the
// product exactly needs the word tables current at every draw (SparseLDA's
// bucket split, Yao, Mimno & McCallum, KDD 2009, pays an O(K·V) rebuild
// per sweep for it). The MH core instead draws each token's topic from the
// two factors as cheap proposals and corrects with an accept/reject step,
// so the per-word alias tables can go *several* sweeps stale without
// biasing the stationary distribution. Per token it alternates two
// proposals, each O(1):
//
//   - word proposal: q_w(k) ∝ n̂_kw + β over the *stale* global topic-word
//     counts n̂ frozen at the last alias rebuild — an alias draw from the
//     word's table (mass Σ_k n̂_kw) mixed with a uniform draw for the Kβ
//     smoothing mass;
//   - doc proposal: q_d(k) ∝ n_dk + α_k over the document's *current*
//     assignments — a uniform draw over the document's token slots (the z
//     array is the alias table, no build needed) mixed with an α draw from
//     a static table.
//
// Each proposal t is accepted over the incumbent k with the standard MH
// probability min(1, [p(t)·q(k)] / [p(k)·q(t)]) where p uses the *current*
// counts (global + own-chunk delta, exactly what the dense core samples
// from) and q the proposal's own distribution — the stale tables appear
// only inside q, so detailed balance holds against the current conditional
// and the chain's stationary distribution is the exact collapsed Gibbs
// conditional no matter how stale the tables are (staleness only lowers
// the acceptance rate). See TestMHKernelMatchesExactConditional for the
// chi-square check against deliberately stale tables.
//
// Alias tables rebuild every Config.AliasRefresh sweeps on the shared pool
// — double-buffered: the rebuild reads the sweep-start globals (frozen for
// the duration of the pass) and fills the inactive buffer concurrently
// with the sweep, swapping in at the pass boundary before the chunk deltas
// merge. A fit therefore performs 1 + ⌊(Iters−1)/AliasRefresh⌋ builds
// (Model.AliasRebuilds) instead of one per sweep.
//
// Determinism: chunk boundaries, per-document (Seed, doc, sweep) streams
// and the rebuild schedule are all P-independent, so MH models are
// bit-identical at any Config.P — the extra proposal/acceptance draws are
// consumed from the same per-document stream, making MH a second
// deterministic trajectory next to dense.

// DefaultAliasRefresh is the default MH alias-table rebuild cadence in
// sweeps (Config.AliasRefresh = 0). Eight sweeps keeps the amortized
// rebuild cost under an eighth of a per-sweep rebuild's while the
// acceptance step absorbs the added staleness.
const DefaultAliasRefresh = 8

// mhProposal is the double-buffered word-proposal state: two AliasSets
// over the global topic-word counts, one active for sampling while the
// other absorbs a background rebuild. Only the pass boundary calls swap,
// so sampling always reads a complete, immutable buffer.
type mhProposal struct {
	v, kTotal int
	beta      float64
	// betaMass is the uniform smoothing mass Kβ every word's proposal
	// carries next to its alias mass.
	betaMass float64
	bufs     [2]linalg.AliasSet
	active   int
}

func newMHProposal(v, kTotal int, beta float64) *mhProposal {
	m := &mhProposal{v: v, kTotal: kTotal, beta: beta, betaMass: float64(kTotal) * beta}
	m.bufs[0].Reset(v)
	m.bufs[1].Reset(v)
	return m
}

func (m *mhProposal) cur() *linalg.AliasSet { return &m.bufs[m.active] }

// swap activates the most recently built buffer. Must not run while a
// pass is sampling.
func (m *mhProposal) swap() { m.active = 1 - m.active }

// buildInactive rebuilds the inactive buffer from the current global
// topic-word counts: CSC gather over the nonzeros (weights are the raw
// counts n̂_kw; the β smoothing mass is handled by the uniform arm of the
// draw) and per-word table builds on the pool. The caller must guarantee
// nKV is not mutated until the build completes — during a sweep the
// globals are frozen, which is exactly that guarantee.
func (m *mhProposal) buildInactive(o par.Opts, nKV [][]int) error {
	s := &m.bufs[1-m.active]
	s.Reset(m.v)
	for _, row := range nKV {
		for w, c := range row {
			if c > 0 {
				s.Count(w)
			}
		}
	}
	s.Layout()
	for k, row := range nKV {
		for w, c := range row {
			if c > 0 {
				s.Put(w, int32(k), float64(c))
			}
		}
	}
	return s.Build(o)
}

// buildAsync runs buildInactive on its own goroutine, overlapping the
// rebuild with the sweep that still samples from the active buffer. The
// caller must receive from the channel before merging chunk deltas into
// nKV (the build reads it) and before calling swap. The build's wall
// time is written to took before the channel send, so the receive
// orders the write for the joining goroutine.
func (m *mhProposal) buildAsync(o par.Opts, nKV [][]int, took *time.Duration) chan error {
	done := make(chan error, 1)
	go func() {
		t0 := time.Now()
		err := m.buildInactive(o, nKV)
		*took = time.Since(t0)
		done <- err
	}()
	return done
}

// propose draws one topic from the word proposal q_w(k) ∝ n̂_kw + β: the
// stale alias table with probability mass/(mass+Kβ), the uniform arm
// otherwise. One uniform variate drives both the arm choice and the draw
// inside the arm.
func (m *mhProposal) propose(w int, u float64) int {
	s := m.cur()
	mass := s.Mass[w]
	u *= mass + m.betaMass
	if u < mass {
		return s.Tab[w].Draw(u / mass)
	}
	t := int((u - mass) / m.beta)
	if t >= m.kTotal {
		t = m.kTotal - 1
	}
	return t
}

// density returns the word proposal's unnormalized density n̂_kw + β at
// topic k — the factor the acceptance ratio needs at the incumbent and
// proposed topics. O(log K_w) via the stale CSC column.
func (m *mhProposal) density(w, k int) float64 {
	return m.cur().Weight(w, int32(k)) + m.beta
}

// mhChunk is one chunk's MH sampling state. It keeps no incremental
// bucket masses — acceptance ratios read the handful of counts they need
// directly — so adjust is two array updates plus the delta bookkeeping.
type mhChunk struct {
	alpha    []float64
	alphaSum float64
	beta, vb float64
	nKV      [][]int
	nK       []int
	dl       *delta
	prop     *mhProposal
	// alphaTab serves the α arm of the doc proposal; static per run.
	alphaTab *linalg.Alias

	// den caches the per-topic conditional denominators
	// float64(nK[k]+dl.k[k]) + Vβ, the hottest loads in the acceptance
	// ratio. Rebuilt at sweep start (refreshDen) and maintained by adjust;
	// counts are far below 2^52, so every cached value is the exactly
	// rounded float of the integer sum.
	den []float64

	// Per-document state, valid between beginDoc calls.
	nDK []int
	// pDK[k] counts document phrases assigned topic k — the doc-proposal
	// density, whose position draw is over phrase slots rather than token
	// slots. Under Run every phrase is one token and pDK equals nDK.
	pDK []int
}

func newMHChunk(alpha []float64, beta float64, v int, nKV [][]int, nK []int, dl *delta,
	prop *mhProposal, alphaTab *linalg.Alias) *mhChunk {
	c := &mhChunk{
		alpha: alpha, beta: beta, vb: float64(v) * beta,
		nKV: nKV, nK: nK, dl: dl, prop: prop, alphaTab: alphaTab,
	}
	for _, a := range alpha {
		c.alphaSum += a
	}
	c.pDK = make([]int, len(alpha))
	c.den = make([]float64, len(alpha))
	c.refreshDen()
	return c
}

// refreshDen recomputes the cached denominators from the chunk's current
// view of the topic totals. The fit loop calls it at every sweep start,
// after the previous sweep's deltas merged into nK.
func (s *mhChunk) refreshDen() {
	for k := range s.den {
		s.den[k] = float64(s.nK[k]+s.dl.k[k]) + s.vb
	}
}

// enableMH attaches MH sampling state to every chunk of the scratch.
func (sc *sweepScratch) enableMH(alpha []float64, beta float64, v int, nKV [][]int, nK []int,
	prop *mhProposal, alphaTab *linalg.Alias) {
	sc.mh = make([]*mhChunk, len(sc.deltas))
	for c := range sc.mh {
		sc.mh[c] = newMHChunk(alpha, beta, v, nKV, nK, sc.deltas[c], prop, alphaTab)
	}
}

func (s *mhChunk) effKV(k, w int) int { return s.nKV[k][w] + s.dl.kv[k][w] }

// beginDoc points the chunk at document state nDK and tallies the
// per-topic phrase counts from the document's phrase assignments zDoc.
func (s *mhChunk) beginDoc(nDK []int, zDoc []int) {
	s.nDK = nDK
	for k := range s.pDK {
		s.pDK[k] = 0
	}
	for _, k := range zDoc {
		s.pDK[k]++
	}
}

// adjust moves c tokens of word w into (+) or out of (−) topic k. O(1).
func (s *mhChunk) adjust(k, w, c int) {
	s.dl.add(k, w, c)
	s.nDK[k] += c
	s.den[k] += float64(c)
}

// moveToken moves a one-word phrase of word w from topic kOld to k: its
// token counts and its phrase slot in pDK.
func (s *mhChunk) moveToken(kOld, k, w int) {
	s.adjust(kOld, w, -1)
	s.adjust(k, w, 1)
	s.pDK[kOld]--
	s.pDK[k]++
}

// target is the unnormalized collapsed conditional at topic x for word w
// with the token under resampling *virtually* removed: the counts still
// include it at topic kOld, so the three counts drop by 1 exactly when
// x == kOld. Virtual removal keeps the hot loop free of delta updates for
// the (majority of) tokens whose topic does not change — the caller only
// moves real counts on a change. Split into numerator and denominator so
// acceptance tests stay division-free.
func (s *mhChunk) target(x, w, kOld int) (num, den float64) {
	d := 0
	if x == kOld {
		d = 1
	}
	return (float64(s.nDK[x]-d) + s.alpha[x]) * (float64(s.effKV(x, w)-d) + s.beta),
		s.den[x] - float64(d)
}

// sampleToken draws a topic for the one-word phrase of word w in slot i
// through the MH kernel: one word-proposal step then one doc-proposal
// step, each accepted against the current-count conditional with the
// token virtually removed (counts still include it at kOld = zDoc[i] on
// entry; target and the densities below carry the correction). zDoc[i] is
// updated in place after each sub-step so the doc proposal's slot draw is
// consistent with the incumbent; the caller moves the real counts
// (moveToken) only when the returned topic differs from kOld. The doc
// proposal's slot tally is pDK, which *includes* slot i at kOld.
//
// Doc-proposal densities: the slot draw includes slot i at the incumbent
// k, so q_d(y | k) ∝ cnt¬i(y) + 1{y=k} + α_y (cnt¬i = slot tally without
// slot i) and the reverse density is evaluated at the *destination* t,
// q_d(k | t) ∝ cnt¬i(k) + 1{k=t} + α_k. The acceptance branch only runs
// for t ≠ k, where both indicators vanish — evaluating the reverse density
// at the current state instead (the LightLDA paper's extra +1 on the
// incumbent) breaks detailed balance and measurably biases the chain (see
// the chi-square kernel test).
func (s *mhChunk) sampleToken(w int, zDoc []int, i int, rng *stream) int {
	kOld := zDoc[i]
	k := kOld
	// Virtual removal freezes the counts for the token's duration, so the
	// incumbent's target factors are computed once and carried across both
	// proposal steps (updated only when a proposal is accepted).
	kn, kd := s.target(k, w, kOld)

	// Word proposal from the stale alias tables. q_w does not depend on
	// the incumbent, so this is plain independence MH. Only proposals
	// naming a different topic tick the counters — self-proposals are
	// no-ops either way and would inflate the recorded accept rate.
	if t := s.prop.propose(w, rng.Float64()); t != k {
		s.dl.ctr.wordProp++
		tn, td := s.target(t, w, kOld)
		// π = [p(t)·q_w(k)] / [p(k)·q_w(t)]; accept iff u·den < num.
		num := tn * kd * s.prop.density(w, k)
		den := kn * td * s.prop.density(w, t)
		if rng.Float64()*den < num {
			s.dl.ctr.wordAcc++
			k = t
			kn, kd = tn, td
			zDoc[i] = k
		}
	}

	// Doc proposal from the document's own assignment slots + α. One
	// variate picks the arm and, in the slot arm, the slot.
	u := rng.Float64() * (float64(len(zDoc)) + s.alphaSum)
	var t int
	if u < float64(len(zDoc)) {
		t = zDoc[int(u)]
	} else {
		t = s.alphaTab.Draw(rng.Float64())
	}
	if t != k {
		s.dl.ctr.docProp++
		dk, dt := 0, 0
		if k == kOld {
			dk = 1
		} else if t == kOld {
			dt = 1
		}
		qk := float64(s.pDK[k]-dk) + s.alpha[k]
		qt := float64(s.pDK[t]-dt) + s.alpha[t]
		tn, td := s.target(t, w, kOld)
		num := tn * kd * qk
		den := kn * td * qt
		if rng.Float64()*den < num {
			s.dl.ctr.docAcc++
			k = t
			zDoc[i] = k
		}
	}
	return k
}

// mhRebuildSchedule owns the MH fit's amortized, double-buffered rebuild
// loop: kick an async rebuild when the active tables are
// AliasRefresh sweeps stale, join it at the pass boundary (before the
// sweep's deltas merge into the globals the rebuild is reading), swap.
type mhRebuildSchedule struct {
	prop    *mhProposal
	refresh int
	stale   int
	pending chan error
	// Rebuilds counts completed builds, including the initial one.
	Rebuilds int
	// BuildTime accumulates the wall time of completed builds (the
	// async builds' concurrent wall time, not kick-to-join). lastBuild
	// is the in-flight build's landing slot, synchronized by the
	// pending-channel receive.
	BuildTime time.Duration
	lastBuild time.Duration
	// keepSrc makes the schedule retain srcKV, a deep copy of the exact
	// counts the *active* tables were built from. Checkpoints need it —
	// at a sweep boundary the active tables are up to refresh sweeps
	// stale, so their source is not recoverable from the boundary counts
	// — and restore rebuilds bit-identical tables from it (the alias
	// build is deterministic in its input). Off unless the run
	// checkpoints; the copy costs O(K·V) per completed build.
	keepSrc bool
	srcKV   [][]int
	// liveKV remembers the table the in-flight (or initial) build reads,
	// so endPass can snapshot it after the swap. The globals are frozen
	// from the build's kick to endPass, so its contents there are
	// exactly what the build saw.
	liveKV [][]int
}

// start performs the initial synchronous build from the post-init counts.
func (r *mhRebuildSchedule) start(o par.Opts, nKV [][]int) error {
	t0 := time.Now()
	if err := r.prop.buildInactive(o, nKV); err != nil {
		return err
	}
	r.BuildTime += time.Since(t0)
	r.prop.swap()
	r.Rebuilds = 1
	if r.keepSrc {
		r.srcKV = copyTable(nKV)
	}
	return nil
}

// restore rebuilds the schedule's state from a checkpoint: the active
// tables from the checkpoint's source counts (bitwise identical to the
// tables the uninterrupted run held, since the build is deterministic),
// the staleness clock and the rebuild counter from the stored values —
// so every subsequent rebuild fires on the same sweep it would have.
func (r *mhRebuildSchedule) restore(o par.Opts, cp *Checkpoint) error {
	t0 := time.Now()
	if err := r.prop.buildInactive(o, cp.MHSourceKV); err != nil {
		return err
	}
	r.BuildTime += time.Since(t0)
	r.prop.swap()
	r.Rebuilds = cp.AliasRebuilds
	r.stale = cp.MHStale
	if r.keepSrc {
		r.srcKV = copyTable(cp.MHSourceKV)
	}
	return nil
}

// beginSweep kicks a background rebuild when the tables are stale enough.
func (r *mhRebuildSchedule) beginSweep(o par.Opts, nKV [][]int) {
	if r.stale >= r.refresh && r.pending == nil {
		r.liveKV = nKV
		r.pending = r.prop.buildAsync(o, nKV, &r.lastBuild)
	}
}

// endPass joins a pending rebuild and swaps the fresh tables in; gibbsPass
// calls it after the chunks finish and before the deltas merge.
func (r *mhRebuildSchedule) endPass() error {
	if r.pending == nil {
		return nil
	}
	err := <-r.pending
	r.pending = nil
	if err != nil {
		return err
	}
	r.BuildTime += r.lastBuild
	r.prop.swap()
	r.Rebuilds++
	r.stale = 0
	if r.keepSrc {
		// Still pre-merge: liveKV holds exactly the counts the joined
		// build read.
		r.srcKV = copyTable(r.liveKV)
	}
	return nil
}

// endSweep ages the active tables by one sweep.
func (r *mhRebuildSchedule) endSweep() { r.stale++ }

// drain joins a pending rebuild on an error exit so the goroutine (which
// reads the count tables) cannot outlive the run.
func (r *mhRebuildSchedule) drain() {
	if r.pending != nil {
		<-r.pending
		r.pending = nil
	}
}

// runPhrasesMH is the MH fitting loop behind Run and RunPhrases. Unigram
// phrases — every phrase under Run, the dominant case in segmented
// corpora — go through the MH kernel with the doc proposal drawing over
// phrase slots (density pDK + α); multi-word phrases keep the dense
// product conditional (samplePhrase, shared with the dense core), reading
// counts through the same chunk state. Returns the number of alias
// rebuilds performed, for Model.AliasRebuilds.
func runPhrasesMH(o par.Opts, cfg Config, docs []PhraseDoc, v, d, start int, sc *sweepScratch,
	alpha []float64, nDK [][]int, nKV [][]int, nK []int, zP [][]int, rr *runRecorder, ck *ckptState) (int, error) {
	if d == 0 {
		return 0, o.Err()
	}
	prop := newMHProposal(v, len(alpha), cfg.Beta)
	sched := &mhRebuildSchedule{prop: prop, refresh: cfg.AliasRefresh, keepSrc: ck.wantsSnapshots()}
	if ck != nil {
		ck.mh = sched
	}
	if cp := cfg.Resume; cp != nil {
		if err := sched.restore(o, cp); err != nil {
			return sched.Rebuilds, err
		}
		rr.prime(sched.Rebuilds, sched.BuildTime)
	} else if err := sched.start(o, nKV); err != nil {
		return sched.Rebuilds, err
	}
	alphaTab := linalg.NewAlias(alpha)
	sc.enableMH(alpha, cfg.Beta, v, nKV, nK, prop, alphaTab)
	for it := start; it < cfg.Iters; it++ {
		for _, ch := range sc.mh {
			ch.refreshDen()
		}
		sched.beginSweep(o, nKV)
		err := gibbsPass(o, cfg.Seed, uint64(it+1), d, sc, nKV, nK, sched.endPass,
			func(c, di int, rng *stream, _ *delta, probs []float64) {
				ch := sc.mh[c]
				zPd := zP[di]
				ch.beginDoc(nDK[di], zPd)
				doc := docs[di]
				for pi, phrase := range doc {
					k := zPd[pi]
					if len(phrase) == 1 {
						// Unigram fast path: virtual removal, counts move
						// only on an actual topic change.
						w := phrase[0]
						if kNew := ch.sampleToken(w, zPd, pi, rng); kNew != k {
							ch.dl.ctr.changed++
							ch.moveToken(k, kNew, w)
						}
						continue
					}
					// Multi-word phrases keep the dense product over
					// really-removed counts.
					kOld := k
					for _, w := range phrase {
						ch.adjust(k, w, -1)
					}
					ch.pDK[k]--
					k = samplePhrase(phrase, ch.nDK, nK, nKV, ch.dl, alpha, ch.beta, ch.vb, probs, rng)
					if k != kOld {
						// A moved phrase moves all of its tokens, keeping
						// Changed in token units next to Tokens.
						ch.dl.ctr.changed += int64(len(phrase))
					}
					zPd[pi] = k
					ch.pDK[k]++
					for _, w := range phrase {
						ch.adjust(k, w, 1)
					}
				}
			})
		if err != nil {
			sched.drain()
			return sched.Rebuilds, err
		}
		sched.endSweep()
		// Diffed against the previous sweep's totals inside endSweep,
		// so the initial synchronous build lands on sweep 1's record.
		if err := rr.endSweep(o, it+1, sched.Rebuilds, sched.BuildTime); err != nil {
			return sched.Rebuilds, err
		}
		if err := ck.boundary(it + 1); err != nil {
			return sched.Rebuilds, err
		}
	}
	return sched.Rebuilds, nil
}
