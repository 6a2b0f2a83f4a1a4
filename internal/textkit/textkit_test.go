package textkit

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Query Processing & Optimization", []string{"query", "processing", "optimization"}},
		{"  ", nil},
		{"LDA-based (topic) models!", []string{"lda", "based", "topic", "models"}},
		{"e2e end2end 42", []string{"e2e", "end2end", "42"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFoldCanonicalizesCaseVariants is the regression test for the
// case-folding mismatch between unicode.ToLower (per rune, what Tokenize
// used) and strings.ToLower (what the serving-side substring search used):
// both keep apart case variants that full folding merges — the Greek final
// sigma being the everyday one. A query typed with 'ς' must match indexed
// text holding 'Σ' or 'σ' no matter which fold path each side went
// through, so Fold/FoldRune are the single helper both sides use.
func TestFoldCanonicalizesCaseVariants(t *testing.T) {
	cases := []struct{ a, b string }{
		{"ΣΊΣΥΦΟΣ", "σίσυφος"}, // uppercase vs lowercase-with-final-sigma
		{"σ", "ς"},             // medial vs final sigma
		{"K", "k"},             // Kelvin sign U+212A vs ASCII k
		{"ſ", "s"},             // long s U+017F
		{"Query", "qUERY"},     // ASCII fast path
		{"Ι", "ι"},             // capital vs small iota
		{"\u1fbe", "ι"},        // prosgegrammeni U+1FBE vs small iota
	}
	for _, c := range cases {
		if Fold(c.a) != Fold(c.b) {
			t.Errorf("Fold(%q) = %q, Fold(%q) = %q — variants must fold together", c.a, Fold(c.a), c.b, Fold(c.b))
		}
	}
	// Iota's fold orbit starts at a combining mark (U+0345), not a letter;
	// the canonical form must still be the letter ι.
	for _, in := range []string{"Ι", "ι", "\u1fbe"} {
		if got := Fold(in); got != "ι" {
			t.Errorf("Fold(%q) = %q (%U), want \"ι\"", in, got, []rune(got))
		}
	}
	if got, want := Tokenize("Ιλιάδα"), []string{"ιλιάδα"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize(%q) = %q, want %q", "Ιλιάδα", got, want)
	}
	// The pre-fix mismatch this pins: strings.ToLower keeps the final
	// sigma distinct, so if Fold ever degrades to it this test fails.
	if strings.ToLower("ΣΊΣΥΦΟΣ") == strings.ToLower("σίσυφος") {
		t.Skip("strings.ToLower now folds final sigma; the helper is redundant")
	}
}

// TestTokenizeUsesFold pins that tokenization goes through the shared fold:
// the same word in any case variant yields one token form.
func TestTokenizeUsesFold(t *testing.T) {
	a := Tokenize("Σίσυφος rolls")
	b := Tokenize("ΣΊΣΥΦΟΣ ROLLS")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Tokenize case variants disagree: %v vs %v", a, b)
	}
}

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("Mining frequent patterns: current status, and future directions.")
	want := []string{"Mining frequent patterns", "current status", "and future directions"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SplitSentences = %v, want %v", got, want)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "of", "and", "is"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"database", "query", "mining"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestPorterStem(t *testing.T) {
	// Reference pairs from the original Porter paper and test vocabulary.
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"mining":       "mine",
		"databases":    "databas",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemIdempotentOnShortWords(t *testing.T) {
	for _, w := range []string{"a", "ab", "Go", "x9"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestPorterStemNeverPanicsAndShrinks(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ln := int(n%12) + 1
		b := make([]byte, ln)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		w := string(b)
		s := PorterStem(w)
		return len(s) <= len(w) && len(s) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVocabularyRoundTrip(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("alpha")
	b := v.Add("beta")
	if a2 := v.Add("alpha"); a2 != a {
		t.Fatalf("Add(alpha) twice gave %d then %d", a, a2)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
	if v.Word(b) != "beta" {
		t.Fatalf("Word(%d) = %q", b, v.Word(b))
	}
	if id, ok := v.ID("beta"); !ok || id != b {
		t.Fatalf("ID(beta) = %d,%v", id, ok)
	}
	if _, ok := v.ID("gamma"); ok {
		t.Fatal("ID(gamma) should be absent")
	}
}

func TestVocabularyFromWords(t *testing.T) {
	v := NewVocabulary()
	for _, w := range []string{"alpha", "beta", "gamma"} {
		v.Add(w)
	}
	// Persist as the id-ordered word list and rebuild.
	got := VocabularyFromWords(v.Words())
	if got.Size() != v.Size() {
		t.Fatalf("Size = %d, want %d", got.Size(), v.Size())
	}
	for i := 0; i < v.Size(); i++ {
		if got.Word(i) != v.Word(i) {
			t.Fatalf("Word(%d) = %q, want %q", i, got.Word(i), v.Word(i))
		}
		if id, ok := got.ID(v.Word(i)); !ok || id != i {
			t.Fatalf("ID(%q) = %d,%v", v.Word(i), id, ok)
		}
	}
	// Adding after a rebuild continues from the next free id.
	if id := got.Add("delta"); id != 3 {
		t.Fatalf("next id after rebuild = %d, want 3", id)
	}
	// Empty list gives a usable empty vocabulary.
	empty := VocabularyFromWords(nil)
	if empty.Size() != 0 {
		t.Fatalf("empty Size = %d", empty.Size())
	}
	if id := empty.Add("x"); id != 0 {
		t.Fatalf("Add on rebuilt-empty vocab = %d", id)
	}
}

func TestVocabularyTopByCount(t *testing.T) {
	v := NewVocabulary()
	v.Add("a")
	v.Add("b")
	v.Add("c")
	top := v.TopByCount([]int{5, 9, 9}, 2)
	if !reflect.DeepEqual(top, []int{1, 2}) {
		t.Fatalf("TopByCount = %v", top)
	}
}

func TestCorpusAddText(t *testing.T) {
	c := NewCorpus()
	i := c.AddText("Mining frequent patterns, without candidate generation", DefaultPipeline)
	if i != 0 {
		t.Fatalf("index = %d", i)
	}
	d := c.Docs[0]
	if len(d.Segments) != 2 {
		t.Fatalf("segments = %d, want 2 (split at comma)", len(d.Segments))
	}
	if got := c.Phrase(d.Tokens); got != "mining frequent patterns candidate generation" {
		t.Fatalf("tokens = %q", got)
	}
	if c.TotalTokens() != 5 {
		t.Fatalf("TotalTokens = %d", c.TotalTokens())
	}
}

func TestCorpusCountsAndDF(t *testing.T) {
	c := NewCorpus()
	c.AddTokens([]string{"x", "y", "x"})
	c.AddTokens([]string{"y", "z"})
	wc := c.WordCounts()
	df := c.DocFrequency()
	xid, _ := c.Vocab.ID("x")
	yid, _ := c.Vocab.ID("y")
	zid, _ := c.Vocab.ID("z")
	if wc[xid] != 2 || wc[yid] != 2 || wc[zid] != 1 {
		t.Fatalf("WordCounts = %v", wc)
	}
	if df[xid] != 1 || df[yid] != 2 || df[zid] != 1 {
		t.Fatalf("DocFrequency = %v", df)
	}
}

func TestPipelineStemming(t *testing.T) {
	p := Pipeline{RemoveStopwords: true, Stem: true, MinLen: 2}
	got := p.Process("The databases are mining relational patterns")
	want := []string{"databas", "mine", "relat", "pattern"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Process = %v, want %v", got, want)
	}
}
