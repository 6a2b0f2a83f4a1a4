package search

import (
	"hash/fnv"
	"sort"
	"strconv"

	"lesm/internal/core"
	"lesm/internal/store"
	"lesm/internal/textkit"
)

// Kind types an index entry: everything a snapshot knows by name falls in
// one of three namespaces.
type Kind uint8

const (
	// KindWord is a vocabulary word; ID is its vocabulary id.
	KindWord Kind = iota
	// KindPhrase is a mined phrase display; ID is its ordinal in the
	// snapshot's phrase list and Path the topic it is attached to.
	KindPhrase
	// KindAuthor is an author of the advisor network; ID is the author
	// index, Name its label when the hierarchy carries one (the id digits
	// otherwise).
	KindAuthor
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindPhrase:
		return "phrase"
	case KindAuthor:
		return "author"
	}
	return "unknown"
}

// Entry is one named thing the index can resolve.
type Entry struct {
	Kind Kind
	// Name is the display form (original case); matching happens on its
	// folded tokens.
	Name string
	// ID is the kind-scoped identifier (vocabulary id, phrase ordinal,
	// author index).
	ID int
	// Path is the owning topic path for phrases ("" otherwise).
	Path string
	// Weight is a static rank prior (phrase score; 0 for words/authors).
	Weight float64
}

// Phrase is one phrase display for Source.
type Phrase struct {
	Display string
	Path    string
	Score   float64
}

// Author is one author for Source. An empty Label indexes the author under
// its id digits only.
type Author struct {
	ID    int
	Label string
}

// Source is the name-bearing content an Index is built from. Build
// consumes the slices in order, so callers wanting deterministic indexes
// must hand over deterministically ordered sources (SourceFromSnapshot
// does: vocabulary order, snapshot phrase order, ascending author id).
type Source struct {
	Words   []string
	Phrases []Phrase
	Authors []Author
}

// SourceFromSnapshot extracts everything a snapshot knows by name:
// vocabulary words, phrase displays (the roles section, the analyzer's
// per-topic view, when present; otherwise the hierarchy's attached phrase
// lists in pre-order), and the advisor network's authors,
// labeled through the hierarchy's author-type entities when it carries
// any (an entity type named "author" or "person"; first display per id in
// pre-order wins). The extraction order is fully determined by the
// snapshot content, so two calls over one snapshot yield identical
// sources.
func SourceFromSnapshot(snap *store.Snapshot) Source {
	var src Source
	if snap == nil {
		return src
	}
	src.Words = snap.Vocab
	if snap.RolePhrases != nil {
		for _, tp := range snap.RolePhrases {
			for _, p := range tp.Phrases {
				src.Phrases = append(src.Phrases, Phrase{Display: p.Display, Path: tp.Path, Score: p.Score})
			}
		}
	} else if snap.Hierarchy != nil {
		snap.Hierarchy.Root.Walk(func(n *core.TopicNode) {
			for _, p := range n.Phrases {
				src.Phrases = append(src.Phrases, Phrase{Display: p.Display, Path: n.Path, Score: p.Score})
			}
		})
	}

	labels := map[int]string{}
	maxID := -1
	if h := snap.Hierarchy; h != nil {
		authorTypes := AuthorTypes(h)
		h.Root.Walk(func(n *core.TopicNode) {
			for _, x := range authorTypes {
				for _, e := range n.Entities[x] {
					if _, ok := labels[e.ID]; !ok && e.Display != "" {
						labels[e.ID] = e.Display
					}
					if e.ID > maxID {
						maxID = e.ID
					}
				}
			}
		})
	}
	if snap.Advisor != nil && snap.Advisor.Net != nil && snap.Advisor.Net.NumAuthors-1 > maxID {
		maxID = snap.Advisor.Net.NumAuthors - 1
	}
	for id := 0; id <= maxID; id++ {
		src.Authors = append(src.Authors, Author{ID: id, Label: labels[id]})
	}
	return src
}

// AuthorTypes returns the hierarchy's author-like entity types — every
// TypeID whose name folds to "author" or "person" — in ascending order.
// SourceFromSnapshot labels advisor-network authors through these types,
// and the serving tier uses the same detection to place an author on the
// hierarchy nodes it loads on.
func AuthorTypes(h *core.Hierarchy) []core.TypeID {
	if h == nil {
		return nil
	}
	var out []core.TypeID
	for x, name := range h.TypeNames {
		f := textkit.Fold(name)
		if f == "author" || f == "person" {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// FromSnapshot builds the index for one snapshot: SourceFromSnapshot
// composed with Build. This is the call the serving tier's artifact build
// makes once per generation.
func FromSnapshot(snap *store.Snapshot) *Index {
	return Build(SourceFromSnapshot(snap))
}

// Index is a tokenized inverted index with edit-distance-tolerant lookup
// over one snapshot's named content. It is immutable after Build: all
// lookups are read-only, so a server can share one Index across
// concurrent requests without locking and swap whole indexes atomically
// on snapshot reload.
type Index struct {
	entries []Entry
	// terms is the sorted distinct token dictionary; postings[i] lists the
	// entries containing terms[i], ascending, deduplicated.
	terms    []string
	postings [][]int32
	// foldedName[i] is Fold(entries[i].Name), for exact full-name checks.
	foldedName []string
	// nameTokens[i] is entry i's distinct token count (min 1), the length
	// normalizer of the match score.
	nameTokens []int
	// byName maps a folded full name to the entries carrying it
	// (ascending), for O(1) exact resolution.
	byName map[string][]int32
}

// Build constructs the index. The construction is deterministic: the same
// Source always produces a bit-identical Index (test-gated by Checksum
// equality), because entries are numbered in Source order and the term
// dictionary is sorted.
func Build(src Source) *Index {
	ix := &Index{byName: map[string][]int32{}}
	terms := map[string][]int32{}
	add := func(e Entry, tokens []string) {
		id := int32(len(ix.entries))
		ix.entries = append(ix.entries, e)
		ix.foldedName = append(ix.foldedName, textkit.Fold(e.Name))
		fn := ix.foldedName[id]
		ix.byName[fn] = append(ix.byName[fn], id)
		seen := map[string]bool{}
		for _, t := range tokens {
			if t == "" || seen[t] {
				continue
			}
			seen[t] = true
			terms[t] = append(terms[t], id)
		}
		n := len(seen)
		if n == 0 {
			n = 1
		}
		ix.nameTokens = append(ix.nameTokens, n)
	}
	for w, word := range src.Words {
		add(Entry{Kind: KindWord, Name: word, ID: w}, textkit.Tokenize(word))
	}
	for i, p := range src.Phrases {
		add(Entry{Kind: KindPhrase, Name: p.Display, ID: i, Path: p.Path, Weight: p.Score}, textkit.Tokenize(p.Display))
	}
	for _, a := range src.Authors {
		name := a.Label
		digits := strconv.Itoa(a.ID)
		if name == "" {
			name = digits
		}
		toks := append(textkit.Tokenize(a.Label), digits)
		add(Entry{Kind: KindAuthor, Name: name, ID: a.ID}, toks)
	}

	ix.terms = make([]string, 0, len(terms))
	for t := range terms {
		ix.terms = append(ix.terms, t)
	}
	sort.Strings(ix.terms)
	ix.postings = make([][]int32, len(ix.terms))
	for i, t := range ix.terms {
		ix.postings[i] = terms[t] // already ascending: entries added in id order
	}
	return ix
}

// Entries returns the number of indexed entries.
func (ix *Index) Entries() int { return len(ix.entries) }

// Terms returns the size of the token dictionary.
func (ix *Index) Terms() int { return len(ix.terms) }

// Postings returns the total posting count across all terms.
func (ix *Index) Postings() int {
	n := 0
	for _, p := range ix.postings {
		n += len(p)
	}
	return n
}

// Entry returns indexed entry i.
func (ix *Index) Entry(i int) Entry { return ix.entries[i] }

// WithTerm returns the ids of the entries whose name holds the folded
// token term, ascending; nil when term is not in the dictionary. The slice
// is the index's own: callers must not modify it.
func (ix *Index) WithTerm(term string) []int32 {
	if i := sort.SearchStrings(ix.terms, term); i < len(ix.terms) && ix.terms[i] == term {
		return ix.postings[i]
	}
	return nil
}

// Named returns the ids of the entries whose folded name equals
// Fold(name), ascending. The slice is the index's own: callers must not
// modify it.
func (ix *Index) Named(name string) []int32 { return ix.byName[textkit.Fold(name)] }

// Checksum is an FNV-1a digest over the index's canonical serialization
// (entries in id order, then the sorted term dictionary with its posting
// lists). Two Builds of the same snapshot must agree bit for bit; the
// determinism tests compare this digest across builds.
func (ix *Index) Checksum() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	num := func(v int64) {
		buf = strconv.AppendInt(buf[:0], v, 10)
		buf = append(buf, 0)
		h.Write(buf)
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num(int64(len(ix.entries)))
	for i, e := range ix.entries {
		num(int64(e.Kind))
		str(e.Name)
		str(ix.foldedName[i])
		num(int64(e.ID))
		str(e.Path)
		buf = strconv.AppendFloat(buf[:0], e.Weight, 'g', -1, 64)
		buf = append(buf, 0)
		h.Write(buf)
	}
	num(int64(len(ix.terms)))
	for i, t := range ix.terms {
		str(t)
		for _, p := range ix.postings[i] {
			num(int64(p))
		}
	}
	return h.Sum64()
}

// MaxDist is the edit-distance bound fuzzy matching grants a query token:
// the "~2" pattern of fulltext retrievers, scaled down for short tokens
// where a couple of edits would match most of the dictionary — exact only
// below 3 runes, one edit up to 5, two beyond.
func MaxDist(token string) int {
	n := 0
	for range token {
		n++
	}
	switch {
	case n < 3:
		return 0
	case n <= 5:
		return 1
	default:
		return 2
	}
}

// maxExpansions caps how many dictionary terms one query token may expand
// to through fuzzy matching; expansions are taken closest-first (then
// highest document frequency, then lexicographic), so the cap only drops
// the least promising variants.
const maxExpansions = 16

// Hit is one ranked search result.
type Hit struct {
	Entry
	// Score is the match score in (0, 2]: matched-token mass averaged over
	// the query's tokens (an edit-distance-d token match contributes
	// 1/(1+d)), length-normalized by how much of the entry's own name the
	// query covers (an entry whose whole name matched outranks one that
	// merely contains the tokens), plus 1 when the folded full name equals
	// the folded query.
	Score float64
	// Distance is the summed edit distance of the matched query tokens —
	// 0 for a fully exact match.
	Distance int
	// Matched of Of query tokens found this entry.
	Matched, Of int
}

// termMatch is one dictionary term matched for a query token.
type termMatch struct {
	term int // index into ix.terms
	dist int
}

// expand finds the dictionary terms matching one query token: the exact
// term when present, else every term within MaxDist(token) edits, capped
// at maxExpansions closest-first.
func (ix *Index) expand(token string) []termMatch {
	i := sort.SearchStrings(ix.terms, token)
	if i < len(ix.terms) && ix.terms[i] == token {
		return []termMatch{{term: i, dist: 0}}
	}
	max := MaxDist(token)
	if max == 0 {
		return nil
	}
	qr := []rune(token)
	var out []termMatch
	for t, term := range ix.terms {
		d := boundedLevenshtein(qr, term, max)
		if d <= max {
			out = append(out, termMatch{term: t, dist: d})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].dist != out[b].dist {
			return out[a].dist < out[b].dist
		}
		da, db := len(ix.postings[out[a].term]), len(ix.postings[out[b].term])
		if da != db {
			return da > db // prefer the better-attested term
		}
		return ix.terms[out[a].term] < ix.terms[out[b].term]
	})
	if len(out) > maxExpansions {
		out = out[:maxExpansions]
	}
	return out
}

// Search matches q against the index and returns up to limit hits ranked
// by descending score (ties: weight, kind, name, path, id — all
// deterministic). A limit <= 0 means no cap. Results are a pure function
// of (index, q, limit).
func (ix *Index) Search(q string, limit int) []Hit {
	tokens := dedupe(textkit.Tokenize(q))
	if len(tokens) == 0 {
		return nil
	}
	type acc struct {
		score    float64
		dist     int
		matched  int
		lastTok  int
		bestTokW float64 // best weight for the current token
		bestTokD int
	}
	accs := map[int32]*acc{}
	for qi, tok := range tokens {
		for _, m := range ix.expand(tok) {
			w := 1.0 / float64(1+m.dist)
			for _, e := range ix.postings[m.term] {
				a := accs[e]
				if a == nil {
					a = &acc{lastTok: -1}
					accs[e] = a
				}
				if a.lastTok != qi {
					// Commit nothing yet; start this token's best-match slot.
					a.lastTok = qi
					a.matched++
					a.bestTokW, a.bestTokD = w, m.dist
					a.score += w
					a.dist += m.dist
				} else if w > a.bestTokW {
					// A closer term for the same query token: replace.
					a.score += w - a.bestTokW
					a.dist += m.dist - a.bestTokD
					a.bestTokW, a.bestTokD = w, m.dist
				}
			}
		}
	}
	if len(accs) == 0 {
		return nil
	}
	fq := textkit.Fold(q)
	hits := make([]Hit, 0, len(accs))
	for e, a := range accs {
		// Length normalization: scale by name coverage so a query matching
		// an entry's whole name outranks a longer entry that merely
		// contains the tokens. Half the weight is containment, half
		// coverage — containment alone still scores, so phrases carrying a
		// queried word remain findable, just below the word itself.
		cov := float64(a.matched) / float64(ix.nameTokens[e])
		h := Hit{
			Entry:    ix.entries[e],
			Score:    a.score / float64(len(tokens)) * (0.5 + 0.5*cov),
			Distance: a.dist,
			Matched:  a.matched,
			Of:       len(tokens),
		}
		if ix.foldedName[e] == fq {
			h.Score++
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(a, b int) bool {
		ha, hb := hits[a], hits[b]
		if ha.Score != hb.Score {
			return ha.Score > hb.Score
		}
		if ha.Weight != hb.Weight {
			return ha.Weight > hb.Weight
		}
		if ha.Kind != hb.Kind {
			return ha.Kind < hb.Kind
		}
		if ha.Name != hb.Name {
			return ha.Name < hb.Name
		}
		if ha.Path != hb.Path {
			return ha.Path < hb.Path
		}
		return ha.ID < hb.ID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// Resolve maps a free-form name to the entity it most plausibly denotes:
// the best-ranked hit that matched every token of the name (exact first,
// then ascending edit distance — so "informatoin" resolves to
// "information" and "jon smith" to "john smith"). kinds, when non-empty,
// restricts resolution to those entry kinds. The boolean reports whether
// any full-coverage hit existed.
func (ix *Index) Resolve(name string, kinds ...Kind) (Hit, bool) {
	// Exact folded-name lookup first: O(1) and immune to the expansion cap.
	if ids := ix.byName[textkit.Fold(name)]; len(ids) > 0 {
		for _, id := range ids {
			e := ix.entries[id]
			if kindAllowed(e.Kind, kinds) {
				toks := len(dedupe(textkit.Tokenize(name)))
				return Hit{Entry: e, Score: 2, Matched: toks, Of: toks}, true
			}
		}
	}
	// Among full-coverage hits, prefer one whose own name has exactly the
	// query's token count — "procesng" denotes the word "processing", not
	// a higher-weighted phrase that merely contains it. A covering hit
	// with extra name tokens is the fallback when no aligned one exists.
	var fallback Hit
	haveFallback := false
	for _, h := range ix.Search(name, 0) {
		if h.Matched != h.Of || !kindAllowed(h.Kind, kinds) {
			continue
		}
		if len(dedupe(textkit.Tokenize(h.Name))) == h.Of {
			return h, true
		}
		if !haveFallback {
			fallback, haveFallback = h, true
		}
	}
	return fallback, haveFallback
}

func kindAllowed(k Kind, kinds []Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

func dedupe(tokens []string) []string {
	out := tokens[:0]
	seen := map[string]bool{}
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// boundedLevenshtein computes the edit distance between the rune slice a
// and the (folded) string b, giving up as soon as it provably exceeds
// max: rows whose minimum passes the bound return max+1 immediately, and
// a length difference beyond max never starts the DP at all.
func boundedLevenshtein(a []rune, b string, max int) int {
	br := []rune(b)
	la, lb := len(a), len(br)
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if diff > max {
		return max + 1
	}
	if la == 0 {
		return lb
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == br[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if d := prev[j] + 1; d < v {
				v = d
			}
			if d := cur[j-1] + 1; d < v {
				v = d
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > max {
			return max + 1
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}
