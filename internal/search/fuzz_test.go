package search

import (
	"reflect"
	"testing"
)

// fuzzSource extends testSource with non-ASCII names, a repeated phrase
// display at a second path and a numeric-looking word, so fuzzed queries
// reach case folding, duplicate names and the author-digits namespace.
func fuzzSource() Source {
	src := testSource()
	src.Words = append(src.Words, "σίσυφος", "straße", "2", "learning")
	src.Phrases = append(src.Phrases,
		Phrase{Display: "Σίσυφος learning", Path: "o/2", Score: 1},
		Phrase{Display: "Query Processing", Path: "o", Score: 1},
		Phrase{Display: "database index tuning", Path: "o/1", Score: 3},
	)
	src.Authors = append(src.Authors, Author{ID: 3, Label: "Ada Lovelace"})
	return src
}

// FuzzSearch checks the query surface's invariants on arbitrary queries up
// to the serving cap of 256 bytes: Search and Resolve never panic, Search
// is a pure function of (query, limit), honours a positive limit and ranks
// by non-increasing score, and a hit Resolve returns matched every token of
// the name it resolved.
func FuzzSearch(f *testing.F) {
	for _, seed := range []struct {
		q     string
		limit int
	}{
		{"query", 10},
		{"procesing", 0},
		{"query processing", 3},
		{"ΣΊΣΥΦΟΣ", 1},
		{"jon smith", -1},
		{"2", 5},
		{"", 10},
		{"\xff\xfe \xc3", 2},
		{"aͅb databse indx", 100},
	} {
		f.Add(seed.q, seed.limit)
	}
	ix := Build(fuzzSource())
	f.Fuzz(func(t *testing.T, q string, limit int) {
		if len(q) > 256 {
			return
		}
		hits := ix.Search(q, limit)
		if again := ix.Search(q, limit); !reflect.DeepEqual(hits, again) {
			t.Fatalf("Search(%q, %d) not deterministic:\n%+v\n%+v", q, limit, hits, again)
		}
		if limit > 0 && len(hits) > limit {
			t.Fatalf("Search(%q, %d) returned %d hits", q, limit, len(hits))
		}
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				t.Fatalf("Search(%q, %d): hit %d scores %v above hit %d's %v", q, limit, i, hits[i].Score, i-1, hits[i-1].Score)
			}
		}
		if h, ok := ix.Resolve(q); ok && h.Matched != h.Of {
			t.Fatalf("Resolve(%q) = %+v: matched %d of %d tokens", q, h, h.Matched, h.Of)
		}
	})
}
