package lda

import (
	"context"
	"fmt"
	"math"

	"lesm/internal/obs"
	"lesm/internal/par"
)

// Sampler selects the Gibbs sampling core. Both cores honor the
// determinism contract (bit-identical models at any Config.P), but they
// consume the per-document PRNG streams differently, so they are two
// *different* deterministic trajectories with the same stationary
// behaviour.
type Sampler string

const (
	// SamplerAuto resolves per workload: SamplerDense below the topic/
	// vocabulary threshold where the MH core's proposal bookkeeping costs
	// more than the O(K) scan it avoids, SamplerMH above it. See
	// Sampler.ResolveFor.
	SamplerAuto Sampler = ""
	// SamplerDense is the classic O(K)-per-token collapsed sampler, the
	// reference the MH core is validated against.
	SamplerDense Sampler = "dense"
	// SamplerMH is the Metropolis–Hastings core: alias proposals from
	// *stale* tables rebuilt every Config.AliasRefresh sweeps, with the
	// accept/reject step restoring exactness — O(1) proposals per token
	// and an amortized O(K·V) rebuild. See mh.go.
	SamplerMH Sampler = "mh"
)

// SamplerAuto's workload thresholds: below either bound the dense core's
// O(K) scan is cheap enough that the MH core's proposal bookkeeping is
// pure overhead (BENCH_pr4.json measured a decomposed core at ~0.8x dense
// on the K=6, V=10 workload, 8.4x at K=200, V=1000).
const (
	autoMinTopics = 32
	autoMinVocab  = 64
)

// ResolveFor resolves SamplerAuto for a workload of kTotal topics (content
// topics plus the background topic when present) over a v-word vocabulary:
// the dense core below the small-K/small-V threshold, the MH core above
// it. Explicit sampler names resolve to themselves. Run, RunPhrases and
// FoldIn resolve through this and record the choice on Model.Sampler (the
// CLIs log it).
func (s Sampler) ResolveFor(kTotal, v int) Sampler {
	if s != SamplerAuto {
		return s
	}
	if kTotal < autoMinTopics || v < autoMinVocab {
		return SamplerDense
	}
	return SamplerMH
}

// Valid reports whether s names a known sampling core. Consumers that
// accept a sampler name from a flag or an options struct (internal/serve,
// the CLIs) share this check so a new core only has to be registered here.
func (s Sampler) Valid() bool {
	switch s {
	case SamplerAuto, SamplerDense, SamplerMH:
		return true
	}
	return false
}

// errUnknown is the shared rejection message for unknown sampler names.
func (s Sampler) errUnknown() error {
	return fmt.Errorf("lda: unknown sampler %q (want %q for auto, %q or %q)", s, SamplerAuto, SamplerDense, SamplerMH)
}

// Config parameterizes a Gibbs run.
type Config struct {
	// K is the number of content topics.
	K int
	// Alpha and Beta are the Dirichlet hyperparameters (defaults 50/K and
	// 0.01, the conventional settings).
	Alpha, Beta float64
	// Iters is the number of Gibbs sweeps (default 200).
	Iters int
	// Seed drives the sampler's randomness. Every document draws from its
	// own counter-based PRNG stream keyed by (Seed, doc, sweep), so the
	// trajectory is a pure function of Seed at any parallelism level.
	Seed int64
	// Background adds one extra shared topic with prior Alpha*BGWeight that
	// soaks up topic-independent words.
	Background bool
	// BGWeight inflates the background topic's document prior (default 3).
	BGWeight float64
	// P bounds the worker count of the parallel sweeps (0 = GOMAXPROCS).
	// Models are bit-identical at any P.
	P int
	// Sampler selects the sampling core: SamplerMH (Metropolis–Hastings
	// alias proposals with amortized rebuilds) or SamplerDense (classic
	// O(K) per token). SamplerAuto picks per workload — see
	// Sampler.ResolveFor. Both cores are deterministic at any P; each
	// follows its own trajectory.
	Sampler Sampler
	// AliasRefresh is the MH core's alias-table rebuild cadence in sweeps
	// (0 = DefaultAliasRefresh; negative is a validation error): the
	// word-proposal tables rebuild from the global counts every
	// AliasRefresh sweeps, double-buffered so sweeps never block on the
	// build. Larger values amortize the O(K·V) rebuild further at the
	// price of staler proposals (lower acceptance, never bias). Other
	// cores ignore it.
	AliasRefresh int
	// Ctx cancels sampling between work chunks (nil = background); a
	// cancelled run returns the context error and no model.
	Ctx context.Context
	// Rec, when non-nil, receives one obs.SweepStats per sweep (and
	// pool telemetry via par.Opts.Obs). Recording is observational
	// only: models are bit-identical with Rec set or nil at any P, and
	// the nil path is allocation-free.
	Rec obs.Recorder
	// ProbeEvery enables the read-only convergence probe: every
	// ProbeEvery-th sweep (and the last) computes the corpus
	// log-likelihood under the current point estimates and attaches it
	// to that sweep's record. 0 disables; requires Rec. The probe only
	// reads merged counts, so it cannot perturb the trajectory.
	ProbeEvery int
	// CheckpointEvery delivers a checkpoint to CheckpointFunc at every
	// CheckpointEvery-th sweep boundary. 0 means no periodic checkpoints
	// (a Stop request still produces a final one when CheckpointFunc is
	// set); negative, or nonzero without CheckpointFunc, is a validation
	// error.
	CheckpointEvery int
	// CheckpointFunc, when non-nil, receives self-contained checkpoints
	// (deep copies — they may be persisted or inspected from other
	// goroutines) at sweep boundaries: every CheckpointEvery sweeps and
	// once more when Stop requests a halt. It runs on the fitting
	// goroutine between sweeps, so it cannot observe torn state; a
	// returned error aborts the fit with that error. Checkpointing is
	// observational: models are bit-identical with or without it.
	CheckpointFunc func(*Checkpoint) error
	// Stop, when non-nil, is polled at every sweep boundary; returning
	// true halts the fit with ErrStopped after delivering a final
	// checkpoint to CheckpointFunc (when set). Unlike Ctx cancellation —
	// which can abort mid-sweep and therefore cannot leave resumable
	// state — Stop always halts at a clean boundary.
	Stop func() bool
	// Resume, when non-nil, restores a fit from a checkpoint instead of
	// initializing: counts and alias state are rebuilt from the
	// checkpoint and sweeps continue at Sweep+1, reproducing the
	// uninterrupted run's remaining trajectory bit-identically at any P.
	// The checkpoint's fingerprint must match this run's config and
	// corpus exactly; a mismatch is an error.
	Resume *Checkpoint
}

func (c Config) parOpts() par.Opts {
	o := par.Opts{P: c.P, Ctx: c.Ctx}
	if c.Rec != nil {
		o.Obs = c.Rec
	}
	return o
}

// validate rejects configurations that would otherwise panic deep inside
// the sampler (K <= 0 divides by zero in withDefaults, an empty vocabulary
// indexes out of range, negative priors produce negative probabilities).
// Called on the raw config, before defaulting fills zero fields.
func (c Config) validate(v int) error {
	if c.K <= 0 {
		return fmt.Errorf("lda: Config.K = %d, need at least 1 topic", c.K)
	}
	if v <= 0 {
		return fmt.Errorf("lda: vocabulary size %d, need at least 1", v)
	}
	// NaN compares false against everything, so "< 0" alone would wave a
	// NaN prior through into every per-token probability.
	if c.Alpha < 0 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("lda: Config.Alpha = %v, need >= 0 (0 = default 50/K)", c.Alpha)
	}
	if c.Beta < 0 || math.IsNaN(c.Beta) {
		return fmt.Errorf("lda: Config.Beta = %v, need >= 0 (0 = default 0.01)", c.Beta)
	}
	if c.Iters < 0 {
		return fmt.Errorf("lda: Config.Iters = %d, need >= 0 (0 = default 200)", c.Iters)
	}
	if c.BGWeight < 0 || math.IsNaN(c.BGWeight) {
		return fmt.Errorf("lda: Config.BGWeight = %v, need >= 0 (0 = default 3)", c.BGWeight)
	}
	if !c.Sampler.Valid() {
		return c.Sampler.errUnknown()
	}
	if c.AliasRefresh < 0 {
		return fmt.Errorf("lda: Config.AliasRefresh = %d, need >= 0 (0 = default %d)", c.AliasRefresh, DefaultAliasRefresh)
	}
	if c.ProbeEvery < 0 {
		return fmt.Errorf("lda: Config.ProbeEvery = %d, need >= 0 (0 = no probe)", c.ProbeEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("lda: Config.CheckpointEvery = %d, need >= 0 (0 = stop-triggered checkpoints only)", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointFunc == nil {
		return fmt.Errorf("lda: Config.CheckpointEvery = %d without Config.CheckpointFunc", c.CheckpointEvery)
	}
	return nil
}

// validateTokens rejects word ids outside [0, v) up front: the count
// tables are sized by v, and an out-of-range id would panic mid-sweep.
func validateTokens(docs [][]int, v int) error {
	for di, doc := range docs {
		for i, w := range doc {
			if w < 0 || w >= v {
				return fmt.Errorf("lda: doc %d token %d: word id %d outside vocabulary [0, %d)", di, i, w, v)
			}
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.K)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iters == 0 {
		c.Iters = 200
	}
	if c.BGWeight == 0 {
		c.BGWeight = 3
	}
	if c.AliasRefresh == 0 {
		c.AliasRefresh = DefaultAliasRefresh
	}
	return c
}

// Model is the posterior summary of a Gibbs run. If the run used a
// background topic it is the last row of Phi (index K).
type Model struct {
	K, V int
	// Phi[k][v] is the topic-word distribution (including the background
	// topic as row K when present).
	Phi [][]float64
	// Theta[d][k] is the document-topic distribution.
	Theta [][]float64
	// Rho[k] is the corpus-wide fraction of tokens assigned to topic k.
	Rho []float64
	// Z[d][i] is the final topic assignment of token i in document d.
	Z [][]int
	// PhraseZ[d][p] is the per-phrase topic assignment when the model was
	// fit with RunPhrases; nil otherwise.
	PhraseZ [][]int
	// Background reports whether row K of Phi is a background topic.
	Background bool
	// NKV[k][v] and NK[k] are the final topic-word and topic-total token
	// counts — the sufficient statistics fold-in inference (FoldIn) and
	// incremental refitting need. Phi is their smoothed normalization:
	// Phi[k][v] = (NKV[k][v]+Beta) / (NK[k]+V*Beta).
	NKV [][]int
	NK  []int
	// Alpha and Beta echo the fit's effective hyperparameters so a
	// persisted model can be folded into with the same smoothing.
	Alpha, Beta float64
	// Sampler is the core the fit actually ran — the resolved value of
	// Config.Sampler (SamplerAuto resolves per workload; see
	// Sampler.ResolveFor).
	Sampler Sampler
	// AliasRebuilds counts the word-proposal alias-table builds the fit
	// performed: 1 + ⌊(Iters−1)/AliasRefresh⌋ for the MH core (amortized),
	// 0 for dense.
	AliasRebuilds int
}

// Run fits LDA to id-encoded documents over a vocabulary of size V.
//
// Token LDA is PhraseLDA over one-word phrases — for a phrase of one word
// the product conditional of RunPhrases is exactly token LDA's — so Run
// fits through the phrase core on a view of docs that makes every token
// its own phrase (the view aliases docs; no ids are copied). Z then holds
// one assignment per token and PhraseZ is nil.
//
// Sweeps execute as chunked passes over the documents on the shared
// parallel runtime: every document samples from its own (Seed, doc, sweep)
// PRNG stream against the sweep-start counts plus its chunk's running
// delta, and chunk deltas merge in chunk order afterwards (see gibbsPass).
// The fitted model is therefore bit-identical at any Config.P. Run returns
// an error when the config or a token id is invalid, or when Config.Ctx is
// cancelled.
func Run(docs [][]int, v int, cfg Config) (*Model, error) {
	if err := cfg.validate(v); err != nil {
		return nil, err
	}
	if err := validateTokens(docs, v); err != nil {
		return nil, err
	}
	view := make([]PhraseDoc, len(docs))
	for di, doc := range docs {
		pd := make(PhraseDoc, len(doc))
		for i := range doc {
			pd[i] = doc[i : i+1 : i+1]
		}
		view[di] = pd
	}
	return fitPhrases(view, v, cfg, "lda", func() uint64 { return hashTokenDocs(docs) })
}

// summarize builds the model from the final counts; z becomes Model.Z.
func summarize(v, kTotal int, cfg Config, nDK [][]int, nKV [][]int, nK []int, z [][]int) *Model {
	m := &Model{K: cfg.K, V: v, Background: cfg.Background, Z: z,
		NKV: nKV, NK: nK, Alpha: cfg.Alpha, Beta: cfg.Beta}
	vb := float64(v) * cfg.Beta
	m.Phi = make([][]float64, kTotal)
	for k := 0; k < kTotal; k++ {
		m.Phi[k] = make([]float64, v)
		for w := 0; w < v; w++ {
			m.Phi[k][w] = (float64(nKV[k][w]) + cfg.Beta) / (float64(nK[k]) + vb)
		}
	}
	m.Theta = make([][]float64, len(nDK))
	for di, row := range nDK {
		m.Theta[di] = make([]float64, kTotal)
		// The document's token count: every token adds one to its row.
		n := 0
		for _, c := range row {
			n += c
		}
		denom := float64(n)
		var asum float64
		for k := 0; k < kTotal; k++ {
			if cfg.Background && k == cfg.K {
				asum += cfg.Alpha * cfg.BGWeight
			} else {
				asum += cfg.Alpha
			}
		}
		for k := 0; k < kTotal; k++ {
			a := cfg.Alpha
			if cfg.Background && k == cfg.K {
				a = cfg.Alpha * cfg.BGWeight
			}
			m.Theta[di][k] = (float64(nDK[di][k]) + a) / (denom + asum)
		}
	}
	m.Rho = make([]float64, kTotal)
	total := 0
	for _, n := range nK {
		total += n
	}
	for k, n := range nK {
		if total > 0 {
			m.Rho[k] = float64(n) / float64(total)
		} else {
			m.Rho[k] = 1 / float64(kTotal)
		}
	}
	return m
}

// TopWords returns the k highest-probability word ids of topic t.
func (m *Model) TopWords(t, k int) []int {
	type wp struct {
		w int
		p float64
	}
	ws := make([]wp, m.V)
	for w := 0; w < m.V; w++ {
		ws[w] = wp{w, m.Phi[t][w]}
	}
	// partial selection sort: k is small
	if k > m.V {
		k = m.V
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < m.V; j++ {
			if ws[j].p > ws[best].p {
				best = j
			}
		}
		ws[i], ws[best] = ws[best], ws[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ws[i].w
	}
	return out
}
