package lda

import (
	"fmt"

	"lesm/internal/par"
)

// PhraseDoc is a document partitioned into a bag of phrases (each phrase a
// word-id sequence), the output form of ToPMine's segmentation step.
type PhraseDoc [][]int

// RunPhrases fits the phrase-constrained LDA of Section 4.4.3: each phrase
// instance receives a single topic shared by all of its words, sampled from
//
//	p(z=k) ∝ (n_dk + α) · Π_i (n_k,w_i + β + c_i) / (n_k + Vβ + i)
//
// where c_i counts earlier occurrences of word w_i inside the same phrase.
// Sampling one topic per multi-word phrase is also why PhraseLDA often runs
// faster than token-level LDA (Table 4.5).
//
// Like Run, sweeps execute as chunked document passes on the shared
// parallel runtime with per-document (Seed, doc, sweep) PRNG streams and
// chunk-ordered delta merging, so the model is bit-identical at any
// Config.P. The MH core applies to single-word phrases — for those the
// conditional is exactly token LDA's, so they go through the O(1) MH
// kernel; multi-word phrases keep the dense O(K·len) product (the alias
// proposals do not factor across a product of word likelihoods) while
// reading counts through the same chunk state. Since segmented corpora
// are dominated by unigram phrases, the MH win carries over. RunPhrases
// returns an error when the config or a token id is invalid, or when
// Config.Ctx is cancelled.
func RunPhrases(docs []PhraseDoc, v int, cfg Config) (*Model, error) {
	if err := cfg.validate(v); err != nil {
		return nil, err
	}
	for di, doc := range docs {
		for pi, phrase := range doc {
			for _, w := range phrase {
				if w < 0 || w >= v {
					return nil, fmt.Errorf("lda: doc %d phrase %d: word id %d outside vocabulary [0, %d)", di, pi, w, v)
				}
			}
		}
	}
	m, err := fitPhrases(docs, v, cfg, "phraselda", func() uint64 { return hashPhraseDocs(docs) })
	if err != nil {
		return nil, err
	}
	// Expand phrase assignments to token assignments.
	m.PhraseZ = m.Z
	m.Z = make([][]int, len(docs))
	for di, doc := range docs {
		for pi, phrase := range doc {
			for range phrase {
				m.Z[di] = append(m.Z[di], m.PhraseZ[di][pi])
			}
		}
	}
	return m, nil
}

// fitPhrases is the fit behind Run and RunPhrases, on an already
// validated corpus. engine names the caller on the checkpoint
// fingerprint and the sweep records; corpusHash digests the caller's
// corpus for the fingerprint and runs only when the fit checkpoints,
// stops or resumes. The returned model's Z holds one assignment per
// phrase.
func fitPhrases(docs []PhraseDoc, v int, cfg Config, engine string, corpusHash func() uint64) (*Model, error) {
	cfg = cfg.withDefaults()
	o := cfg.parOpts()
	kTotal := cfg.K
	if cfg.Background {
		kTotal++
	}
	d := len(docs)
	nDK := make([][]int, d)
	nKV := make([][]int, kTotal)
	nK := make([]int, kTotal)
	for k := range nKV {
		nKV[k] = make([]int, v)
	}
	// zP[d][p] is the topic of phrase p in doc d.
	zP := make([][]int, d)
	alpha := alphaVec(cfg, kTotal)
	sc := newSweepScratch(samplerChunks(d, kTotal, v), kTotal, v)
	core := cfg.Sampler.ResolveFor(kTotal, v)
	tokens := countPhraseTokens(docs)

	// The fingerprint binds checkpoints to this exact fit; computing it
	// (one corpus hash) is skipped entirely when the run neither
	// checkpoints, stops, nor resumes.
	var fp Fingerprint
	if cfg.CheckpointFunc != nil || cfg.Stop != nil || cfg.Resume != nil {
		fp = newFingerprint(engine, core, cfg, v, d, tokens, corpusHash())
	}

	// start is the number of already-completed sweeps: 0 for a fresh fit
	// (whose state comes from the init pass below), the checkpoint's
	// sweep on resume (whose state is replayed from the stored Z).
	start := 0
	if cp := cfg.Resume; cp != nil {
		docLens := make([]int, d)
		for di, doc := range docs {
			docLens[di] = len(doc)
		}
		if err := cp.check(fp, kTotal, docLens); err != nil {
			return nil, err
		}
		restoreCounts(cp, kTotal, docs, nDK, nKV, nK, zP)
		start = cp.Sweep
	} else {
		// Initialization pass (uniform assignments), shared by both cores
		// so an A/B comparison starts from the same state.
		err := gibbsPass(o, cfg.Seed, 0, d, sc, nKV, nK, nil,
			func(_, di int, rng *stream, dl *delta, _ []float64) {
				doc := docs[di]
				nDK[di] = make([]int, kTotal)
				zP[di] = make([]int, len(doc))
				for pi, phrase := range doc {
					k := rng.Intn(kTotal)
					zP[di][pi] = k
					nDK[di][k] += len(phrase)
					for _, w := range phrase {
						dl.add(k, w, 1)
					}
				}
			})
		if err != nil {
			return nil, err
		}
	}

	// The recorder attaches after the init pass so sweep 1's timings
	// cover sweep 1 only; nil (the common case) makes every endSweep a
	// no-op and keeps gibbsPass untimed.
	rr := newRunRecorder(cfg, engine, d, tokens, sc,
		phraseProbe(docs, alpha, cfg.Beta, v, nDK, nKV, nK))
	ck := newCkptState(cfg, fp, zP)

	var err error
	rebuilds := 0
	switch core {
	case SamplerMH:
		rebuilds, err = runPhrasesMH(o, cfg, docs, v, d, start, sc, alpha, nDK, nKV, nK, zP, rr, ck)
	default:
		err = runPhrasesDense(o, cfg, docs, v, d, start, sc, alpha, nDK, nKV, nK, zP, rr, ck)
	}
	if err != nil {
		return nil, err
	}
	m := summarize(v, kTotal, cfg, nDK, nKV, nK, zP)
	m.Sampler, m.AliasRebuilds = core, rebuilds
	return m, nil
}

// samplePhrase draws a topic for one (already-removed) phrase from the
// dense product conditional, reading effective counts (global + own-chunk
// delta) by direct indexing — this is the innermost loop of both phrase
// cores, shared so the dense/MH A/B can never desynchronize on the
// phrase math (the in-phrase duplicate-word correction c and the
// position-shifted denominator). Consumes exactly one PRNG step.
func samplePhrase(phrase []int, nDK, nK []int, nKV [][]int, dl *delta,
	alpha []float64, beta, vb float64, probs []float64, rng *stream) int {
	kTotal := len(alpha)
	total := 0.0
	if len(phrase) == 1 {
		// One word (every phrase of Run, most of a segmented corpus):
		// token LDA's conditional, scored as (n_dk+α)·(n_kw+β)/(n_k+Vβ)
		// — one division per topic, and the operation order token LDA's
		// trajectory was pinned with.
		w := phrase[0]
		for kk := 0; kk < kTotal; kk++ {
			p := (float64(nDK[kk]) + alpha[kk]) *
				(float64(nKV[kk][w]+dl.kv[kk][w]) + beta) /
				(float64(nK[kk]+dl.k[kk]) + vb)
			probs[kk] = p
			total += p
		}
	} else {
		for kk := 0; kk < kTotal; kk++ {
			p := float64(nDK[kk]) + alpha[kk]
			for i, w := range phrase {
				// c counts earlier in-phrase occurrences of w.
				c := 0
				for j := 0; j < i; j++ {
					if phrase[j] == w {
						c++
					}
				}
				p *= (float64(nKV[kk][w]+dl.kv[kk][w]) + beta + float64(c)) /
					(float64(nK[kk]+dl.k[kk]) + vb + float64(i))
			}
			probs[kk] = p
			total += p
		}
	}
	r := rng.Float64() * total
	for kk := 0; kk < kTotal; kk++ {
		r -= probs[kk]
		if r <= 0 {
			return kk
		}
	}
	return kTotal - 1
}

// runPhrasesDense is the classic collapsed sampler: every phrase scores
// all topics (O(K·len) per phrase) against global + own-chunk delta
// counts.
func runPhrasesDense(o par.Opts, cfg Config, docs []PhraseDoc, v, d, start int, sc *sweepScratch,
	alpha []float64, nDK [][]int, nKV [][]int, nK []int, zP [][]int, rr *runRecorder, ck *ckptState) error {
	vb := float64(v) * cfg.Beta
	for it := start; it < cfg.Iters; it++ {
		err := gibbsPass(o, cfg.Seed, uint64(it+1), d, sc, nKV, nK, nil,
			func(_, di int, rng *stream, dl *delta, probs []float64) {
				doc := docs[di]
				for pi, phrase := range doc {
					kOld := zP[di][pi]
					k := kOld
					nDK[di][k] -= len(phrase)
					for _, w := range phrase {
						dl.add(k, w, -1)
					}
					k = samplePhrase(phrase, nDK[di], nK, nKV, dl, alpha, cfg.Beta, vb, probs, rng)
					if k != kOld {
						dl.ctr.changed += int64(len(phrase))
					}
					zP[di][pi] = k
					nDK[di][k] += len(phrase)
					for _, w := range phrase {
						dl.add(k, w, 1)
					}
				}
			})
		if err != nil {
			return err
		}
		if err := rr.endSweep(o, it+1, 0, 0); err != nil {
			return err
		}
		if err := ck.boundary(it + 1); err != nil {
			return err
		}
	}
	return nil
}
