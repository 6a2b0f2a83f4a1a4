package textkit

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzTokenize checks the tokenizer's invariants on arbitrary input: it
// never panics, is deterministic, emits no empty token, and is a fixed
// point — re-tokenizing its own space-joined output gives back the same
// tokens (so every folded rune is still a letter or digit). Fold must be
// idempotent, and the pipeline stages built on Tokenize (stopword
// filtering, Porter stemming, sentence splitting) must survive the same
// input.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"Query Processing & Optimization",
		"ΣΊΣΥΦΟΣ σίσυφος",
		"Ιλιάδα ι ι",
		"K kelvin K",
		"ſtraße long s",
		"e2e end2end 42, 7.5; (x)",
		"\xff\xfe invalid utf-8 \xc3",
		"aͅb",
	} {
		f.Add(s)
	}
	stem := Pipeline{RemoveStopwords: true, Stem: true, MinLen: 2}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		if again := Tokenize(s); !reflect.DeepEqual(toks, again) {
			t.Fatalf("Tokenize(%q) not deterministic: %q vs %q", s, toks, again)
		}
		for i, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) token %d is empty: %q", s, i, toks)
			}
		}
		if re := Tokenize(strings.Join(toks, " ")); !reflect.DeepEqual(toks, re) {
			t.Fatalf("Tokenize(%q) = %q, but re-tokenizing the joined tokens gives %q", s, toks, re)
		}
		if once := Fold(s); Fold(once) != once {
			t.Fatalf("Fold not idempotent on %q: %q then %q", s, once, Fold(once))
		}
		DefaultPipeline.Process(s)
		stem.Process(s)
		SplitSentences(s)
	})
}
