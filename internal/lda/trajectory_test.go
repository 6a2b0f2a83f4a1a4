package lda

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// trajectoryTokenCorpus is a K=40-scale token corpus: 90 documents of
// 20–44 tokens over a 120-word vocabulary, skewed toward a few words per
// document so the fit has structure to find, plus an empty document.
func trajectoryTokenCorpus() [][]int {
	rng := rand.New(rand.NewSource(1401))
	docs := make([][]int, 0, 91)
	for d := 0; d < 90; d++ {
		base := rng.Intn(120)
		doc := make([]int, 20+rng.Intn(25))
		for i := range doc {
			if rng.Intn(3) == 0 {
				doc[i] = rng.Intn(120)
			} else {
				doc[i] = (base + rng.Intn(8)) % 120
			}
		}
		docs = append(docs, doc)
	}
	return append(docs, []int{})
}

// trajectoryPhraseCorpus segments the token corpus into a mix of one-,
// two- and three-word phrases, with some repeated words inside a phrase
// so the in-phrase duplicate correction of the product conditional runs.
func trajectoryPhraseCorpus() []PhraseDoc {
	rng := rand.New(rand.NewSource(1402))
	raw := trajectoryTokenCorpus()
	docs := make([]PhraseDoc, len(raw))
	for di, doc := range raw {
		pd := PhraseDoc{}
		for i := 0; i < len(doc); {
			n := 1 + rng.Intn(3)
			if i+n > len(doc) {
				n = len(doc) - i
			}
			phrase := append([]int(nil), doc[i:i+n]...)
			if n == 3 && rng.Intn(4) == 0 {
				phrase[2] = phrase[0]
			}
			pd = append(pd, phrase)
			i += n
		}
		docs[di] = pd
	}
	return docs
}

// fitDigest is an FNV-1a digest of everything a fit's trajectory
// determines: the per-token and per-phrase assignments, the topic-word
// counts, Theta and Phi bit for bit, the alias-rebuild count, the
// checkpoint fingerprint, and every recorded sweep's counters and probe.
func fitDigest(m *Model, fps []Fingerprint, rec *collectRecorder) uint64 {
	h := fnv.New64a()
	ints := func(tag string, rows [][]int) {
		fmt.Fprintf(h, "%s%d|", tag, len(rows))
		if rows == nil {
			io.WriteString(h, "nil|")
		}
		for _, r := range rows {
			fmt.Fprintln(h, r)
		}
	}
	floats := func(tag string, rows [][]float64) {
		fmt.Fprintf(h, "%s%d|", tag, len(rows))
		for _, r := range rows {
			for _, x := range r {
				fmt.Fprintf(h, "%x,", math.Float64bits(x))
			}
			io.WriteString(h, "\n")
		}
	}
	ints("Z", m.Z)
	ints("PhraseZ", m.PhraseZ)
	ints("NKV", m.NKV)
	floats("Theta", m.Theta)
	floats("Phi", m.Phi)
	fmt.Fprintf(h, "rebuilds=%d sampler=%s|", m.AliasRebuilds, m.Sampler)
	for _, fp := range fps {
		fmt.Fprintf(h, "%#v|", fp)
	}
	for _, s := range rec.sweeps {
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d %x|", s.Engine, s.Sweep, s.Tokens, s.Changed,
			s.WordProposals, s.WordAccepts, s.DocProposals, s.DocAccepts, s.AliasRebuilds, s.Chunks,
			math.Float64bits(s.LogLikelihood))
	}
	return h.Sum64()
}

// TestFitTrajectoryPinned pins the exact fit trajectories of Run and
// RunPhrases for both sampling cores, with and without the background
// topic, at P=1 and P=NumCPU: any change to the sampling loops, the PRNG
// stream consumption, the checkpoint fingerprint or the recorded sweep
// statistics changes a digest. A deliberate trajectory change must
// update these values and say so; a refactor must leave them alone.
func TestFitTrajectoryPinned(t *testing.T) {
	want := map[string]uint64{
		"run/dense":           0x477e3aeb3092de79,
		"run/dense/bg":        0x663c9c23bbc114de,
		"run/mh":              0x6fe2ec686b8f4e32,
		"run/mh/bg":           0x828f7e4f1ddea44e,
		"runphrases/dense":    0xba15de10a90b7d54,
		"runphrases/dense/bg": 0x73c492f2b860c06a,
		"runphrases/mh":       0x707025f72235e994,
		"runphrases/mh/bg":    0xf06b11f9bfaed88b,
	}
	tokens := trajectoryTokenCorpus()
	phrases := trajectoryPhraseCorpus()
	const v = 120
	for _, engine := range []string{"run", "runphrases"} {
		for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
			for _, bg := range []bool{false, true} {
				name := engine + "/" + string(sampler)
				if bg {
					name += "/bg"
				}
				for _, p := range []int{1, runtime.NumCPU()} {
					var fps []Fingerprint
					rec := &collectRecorder{}
					cfg := Config{
						K: 40, Iters: 40, Seed: 1403, Background: bg, P: p,
						Sampler: sampler, AliasRefresh: 3,
						Rec: rec, ProbeEvery: 7,
						CheckpointEvery: 20,
						CheckpointFunc: func(cp *Checkpoint) error {
							fps = append(fps, cp.Fingerprint)
							return nil
						},
					}
					var m *Model
					if engine == "run" {
						m = Must(Run(tokens, v, cfg))
					} else {
						m = Must(RunPhrases(phrases, v, cfg))
					}
					if got := fitDigest(m, fps, rec); got != want[name] {
						t.Errorf("%s P=%d: trajectory digest %#x, want %#x", name, p, got, want[name])
					}
				}
			}
		}
	}
}
