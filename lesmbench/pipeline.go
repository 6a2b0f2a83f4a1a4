package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lesm"
	"lesm/internal/synth"
)

// Fit sizes. The fit workload's corpus makes one pipeline take a few
// seconds on a 2-CPU host, so a run holds several and reports their
// median; the serving workloads fit a smaller corpus in set-up, because
// fold-in and lookup costs depend on K, the vocabulary and the query, not
// on corpus size.
const (
	fitDocs        = 500
	serveDocs      = 200
	hierarchyK     = 4
	phraseTopics   = 50
	fitTopics      = 50
	checkpointStep = 50 // sweeps between checkpoints: 4 per 200-sweep fit
)

// sub derives an independent input seed from the run seed.
func sub(seed int64, k int64) int64 { return seed*7919 + k }

// fitInput is everything a pipeline run consumes, generated from the seed
// before any timing starts.
type fitInput struct {
	texts      []string // raw text, one document per entry
	papers     []lesm.RelPaper
	numAuthors int
}

// renderTexts renders a synthetic corpus back to raw text, so the
// pipeline starts where a user's would: from strings.
func renderTexts(ds *synth.Dataset) []string {
	out := make([]string, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		words := make([]string, len(d.Tokens))
		for j, t := range d.Tokens {
			words[j] = ds.Corpus.Vocab.Word(t)
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

// genFitInput generates a pipeline's input: docs DBLP-style abstracts,
// then extra documents of another domain (their words are the ones this
// input's vocabulary has and a sibling input's may lack), and a simulated
// academic genealogy with seedFaculty founding faculty.
func genFitInput(seed int64, docs int, extra synth.LongTextDomain, extraDocs, seedFaculty int) *fitInput {
	in := &fitInput{texts: renderTexts(synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: docs, Seed: sub(seed, 1)}))}
	if extraDocs > 0 {
		in.texts = append(in.texts, renderTexts(synth.LongText(extra, synth.TextConfig{NumDocs: extraDocs, Seed: sub(seed, 2)}))...)
	}
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: sub(seed, 3), SeedFaculty: seedFaculty})
	in.papers = make([]lesm.RelPaper, len(g.Papers))
	for i, p := range g.Papers {
		in.papers[i] = lesm.RelPaper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
	}
	in.numAuthors = g.NumAuthors
	return in
}

// heldoutDocs generates n abstracts the fits never saw, as the token
// strings a client sends to /infer. Words the fitted vocabulary lacks stay
// in: the server must drop them.
func heldoutDocs(seed int64, n int) [][]string {
	texts := renderTexts(synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: n, Seed: sub(seed, 4)}))
	out := make([][]string, n)
	for i, t := range texts {
		out[i] = lesm.DefaultPipeline.Process(t)
	}
	return out
}

// titleDocs generates n title-length queries from the CS title corpus,
// whose vocabulary only partly overlaps the abstracts'.
func titleDocs(seed int64, n int) [][]string {
	texts := renderTexts(synth.DBLPTitles(synth.TextConfig{NumDocs: n, Seed: sub(seed, 5)}))
	out := make([][]string, n)
	for i, t := range texts {
		out[i] = lesm.DefaultPipeline.Process(t)
	}
	return out
}

// fitParams are the pipeline's model sizes.
type fitParams struct {
	topics int // K of the flat Gibbs topic model that /infer folds into
	seed   int64
}

// fitOutput is one pipeline run's published, reloaded, indexed snapshot.
type fitOutput struct {
	art  *lesm.Artifact // the artifact Load returned, with its index built
	path string         // where it was published
	// numAuthors is the advisor section's author count.
	numAuthors int
	// tokens is the fitted corpus's token count.
	tokens  int
	digest  [32]byte // sha256 of the published snapshot file
	bytes   int64
	phrases int            // ranked topical phrases TopicalPhrases returned
	total   time.Duration  // raw text -> indexed snapshot
	rec     *layerRecorder // nil when untraced
	traceID uint64
	ckpts   int
}

// runPipeline is the batch analyst's path, in order: tokenize raw text,
// build the CATHY hierarchy, attach phrases, mine topical phrases
// (ToPMine + PhraseLDA), fit the flat Gibbs model with durable
// checkpoints, mine the advisor tree, then publish (Save), reload (Load)
// and index (SearchIndex). With a tracer every call is a span under one
// trace, and the program's obs hook feeds rec.
func runPipeline(tr *tracer, traceID uint64, in *fitInput, p fitParams, path string) (*fitOutput, error) {
	out := &fitOutput{traceID: traceID, path: path, numAuthors: in.numAuthors}

	var rec lesm.Recorder
	if tr != nil {
		out.rec = newLayerRecorder()
		rec = out.rec
	}
	t0 := time.Now()
	root := tr.begin("bench.pipeline", traceID, nil)
	defer root.end()

	sp := tr.begin("textkit.tokenize", traceID, root)
	corpus := lesm.NewCorpus()
	for _, t := range in.texts {
		corpus.AddText(t, lesm.DefaultPipeline)
	}
	sp.end()
	out.tokens = corpus.TotalTokens()

	sp = tr.begin("cathy.build", traceID, root)
	h, err := lesm.BuildTextHierarchy(corpus, lesm.HierarchyOptions{K: hierarchyK, Levels: 2, Seed: p.seed, Recorder: rec})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("BuildTextHierarchy: %w", err)
	}

	sp = tr.begin("topmine.attach", traceID, root)
	_, err = lesm.AttachPhrases(corpus, nil, h, lesm.PhraseOptions{})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("AttachPhrases: %w", err)
	}

	sp = tr.begin("topmine.topical_phrases", traceID, root)
	ranked, err := lesm.TopicalPhrases(corpus, phraseTopics, p.seed, lesm.RunOptions{Recorder: rec})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("TopicalPhrases: %w", err)
	}
	for _, r := range ranked {
		out.phrases += len(r)
	}

	ckptPath := path + ".ckpt"
	fit := tr.begin("lda.fit", traceID, root)
	topics, err := lesm.InferTopicsGibbs(corpus, p.topics, p.seed, lesm.RunOptions{
		Recorder:        rec,
		CheckpointEvery: checkpointStep,
		CheckpointFunc: func(cp *lesm.Checkpoint) error {
			s := tr.begin("store.checkpoint", traceID, fit)
			err := lesm.SaveCheckpoint(ckptPath, cp)
			s.end()
			out.ckpts++
			return err
		},
	})
	fit.end()
	if err != nil {
		return nil, fmt.Errorf("InferTopicsGibbs: %w", err)
	}

	sp = tr.begin("tpfg.mine", traceID, root)
	adv, err := lesm.MineAdvisorTree(in.papers, in.numAuthors, p.seed)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("MineAdvisorTree: %w", err)
	}

	art := &lesm.Artifact{
		Hierarchy:   h,
		Topics:      topics,
		Vocab:       corpus.Vocab,
		Corpus:      lesm.NewCorpusMeta(corpus),
		RolePhrases: lesm.RolePhrasesOf(h),
		Advisor:     adv,
	}
	sp = tr.begin("store.save", traceID, root)
	err = lesm.Save(path, art)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("Save: %w", err)
	}
	sp = tr.begin("store.load", traceID, root)
	loaded, err := lesm.Load(path)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("Load: %w", err)
	}
	sp = tr.begin("search.build", traceID, root)
	loaded.SearchIndex()
	sp.end()
	out.total = time.Since(t0)
	out.art = loaded

	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out.digest = sha256.Sum256(data)
	out.bytes = int64(len(data))
	return out, nil
}

// pipelineLayers derives the fit layers' per-layer metrics of one traced
// pipeline run: span self times plus the obs hook's sweep and pool sums.
func pipelineLayers(tr *tracer, o *fitOutput) map[string]float64 {
	self := selfTimes(tr.trace(o.traceID))
	lda := o.rec.engine("lda")
	plda := o.rec.engine("phraselda")
	both := o.rec.engine("lda", "phraselda")
	cathy := o.rec.engine("cathy")
	o.rec.mu.Lock()
	wait, exec, capacity := o.rec.poolWait, o.rec.poolExec, o.rec.poolCap
	o.rec.mu.Unlock()
	return map[string]float64{
		"textkit.tokenize_s":        self["textkit.tokenize"].Seconds(),
		"topmine.attach_s":          self["topmine.attach"].Seconds(),
		"topmine.topical_phrases_s": self["topmine.topical_phrases"].Seconds(),
		"topmine.phrases":           float64(o.phrases),
		"cathy.build_s":             self["cathy.build"].Seconds(),
		"cathy.em_sweeps":           float64(cathy.sweeps),
		"lda.fit_s":                 self["lda.fit"].Seconds(),
		"lda.tokens_per_s":          ratio(float64(lda.tokens), lda.sweepT.Seconds()),
		"lda.phrase_tokens_per_s":   ratio(float64(plda.tokens), plda.sweepT.Seconds()),
		"lda.sample_s":              (both.sweepT - both.merge).Seconds(),
		"lda.merge_s":               both.merge.Seconds(),
		"lda.alias_rebuild_s":       both.rebuild.Seconds(),
		"lda.alias_rebuilds":        float64(both.rebuilds),
		"lda.word_accept_frac":      ratio(float64(both.wordAcc), float64(both.wordProp)),
		"lda.doc_accept_frac":       ratio(float64(both.docAcc), float64(both.docProp)),
		"lda.changed_frac":          ratio(float64(both.changed), float64(both.tokens)),
		"par.wait_s":                wait.Seconds(),
		"par.exec_s":                exec.Seconds(),
		"par.busy_frac":             ratio(exec.Seconds(), capacity.Seconds()),
		"tpfg.mine_s":               self["tpfg.mine"].Seconds(),
		"store.save_s":              self["store.save"].Seconds(),
		"store.load_s":              self["store.load"].Seconds(),
		"store.snapshot_bytes":      float64(o.bytes),
		"store.checkpoint_s":        self["store.checkpoint"].Seconds(),
		"store.checkpoints":         float64(o.ckpts),
		"search.build_s":            self["search.build"].Seconds(),
		"search.terms":              float64(o.art.SearchIndex().Terms()),
		"search.entries":            float64(o.art.SearchIndex().Entries()),
	}
}

// medianLayers reports, for every metric name, the median over runs.
func (b *bench) medianLayers(runs []map[string]float64, units map[string]string) {
	if len(runs) == 0 {
		return
	}
	for name := range runs[0] {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r[name])
		}
		b.setLayer(name, median(vals), units[name])
	}
}

// fitLayerUnits gives each pipeline metric its unit.
var fitLayerUnits = map[string]string{
	"textkit.tokenize_s": "s", "topmine.attach_s": "s", "topmine.topical_phrases_s": "s",
	"topmine.phrases": "count", "cathy.build_s": "s", "cathy.em_sweeps": "count",
	"lda.fit_s": "s", "lda.tokens_per_s": "1/s", "lda.phrase_tokens_per_s": "1/s",
	"lda.sample_s": "s", "lda.merge_s": "s", "lda.alias_rebuild_s": "s", "lda.alias_rebuilds": "count",
	"lda.word_accept_frac": "ratio", "lda.doc_accept_frac": "ratio", "lda.changed_frac": "ratio",
	"par.wait_s": "s", "par.exec_s": "s", "par.busy_frac": "ratio", "tpfg.mine_s": "s",
	"store.save_s": "s", "store.load_s": "s", "store.snapshot_bytes": "bytes",
	"store.checkpoint_s": "s", "store.checkpoints": "count",
	"search.build_s": "s", "search.terms": "count", "search.entries": "count",
}

// heldoutPerplexity is document-completion perplexity: each held-out
// document's first half is folded in (Artifact.Infer), and its second
// half is scored under theta x Phi. Unknown words are skipped. It is a
// pure function of the artifact, the documents and the seed, so it guards
// model quality against a faster sampler that breaks the chain.
func heldoutPerplexity(art *lesm.Artifact, docs [][]string, seed int64) (float64, error) {
	var observed, rest [][]int
	for _, d := range docs {
		var ids []int
		for _, w := range d {
			if id, ok := art.Vocab.ID(w); ok {
				ids = append(ids, id)
			}
		}
		if len(ids) < 4 {
			continue
		}
		half := len(ids) / 2
		observed = append(observed, ids[:half])
		rest = append(rest, ids[half:])
	}
	if len(observed) == 0 {
		return 0, fmt.Errorf("no held-out document has known words")
	}
	theta, err := art.Infer(observed, seed)
	if err != nil {
		return 0, err
	}
	phi := art.Topics.Phi
	ll, n := 0.0, 0
	for d, ws := range rest {
		for _, w := range ws {
			p := 0.0
			for k := range phi {
				p += theta[d][k] * phi[k][w]
			}
			ll += math.Log(p)
			n++
		}
	}
	return math.Exp(-ll / float64(n)), nil
}

// snapshotPath is the published snapshot's path inside the run directory.
func snapshotPath(dir, name string) string { return filepath.Join(dir, name+".lesm") }
