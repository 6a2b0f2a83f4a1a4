package serve

// Tests for the entity search subsystem on the serving side: /search and
// /entity/:name over the per-generation search.Index, the deterministic
// index build, and conditional-GET semantics across distinct query
// strings of one generation.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"lesm/internal/core"
	"lesm/internal/store"
	"lesm/internal/tpfg"
)

func TestSearchEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})

	// Exact word: the word entry leads (exact-name bonus) and the phrase
	// containing the token follows.
	got := getJSON(t, ts.URL+"/search?q=query", http.StatusOK)
	hits := got["hits"].([]any)
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	top := hits[0].(map[string]any)
	if top["kind"] != "word" || top["name"] != "query" {
		t.Fatalf("top hit = %v", top)
	}
	foundPhrase := false
	for _, h := range hits {
		m := h.(map[string]any)
		if m["kind"] == "phrase" && m["name"] == "query processing" && m["path"] == "o/1" {
			foundPhrase = true
		}
	}
	if !foundPhrase {
		t.Fatalf("phrase hit missing: %v", hits)
	}

	// Fuzzy: one edit resolves to the word, with the distance surfaced.
	got = getJSON(t, ts.URL+"/search?q=databse", http.StatusOK)
	hits = got["hits"].([]any)
	if len(hits) == 0 {
		t.Fatal("fuzzy query found nothing")
	}
	top = hits[0].(map[string]any)
	if top["name"] != "database" || top["distance"].(float64) != 1 {
		t.Fatalf("fuzzy top hit = %v", top)
	}

	// Authors are typed hits too (indexed under their id digits here —
	// the test snapshot's hierarchy carries no author labels).
	got = getJSON(t, ts.URL+"/search?q=2", http.StatusOK)
	top = got["hits"].([]any)[0].(map[string]any)
	if top["kind"] != "author" || top["id"].(float64) != 2 {
		t.Fatalf("author hit = %v", top)
	}

	// Param validation: q required, limit must be a positive integer.
	getJSON(t, ts.URL+"/search", http.StatusBadRequest)
	getJSON(t, ts.URL+"/search?q=query&limit=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/search?q=query&limit=-3", http.StatusBadRequest)
	getJSON(t, ts.URL+"/search?q=query&limit=zap", http.StatusBadRequest)
	if one := getJSON(t, ts.URL+"/search?q=query&limit=1", http.StatusOK); len(one["hits"].([]any)) != 1 {
		t.Fatalf("limit=1 hits = %v", one["hits"])
	}
}

func TestSearchEmptyHitsShape(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/search?q=qqqqzzzz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), `"hits":[]`) {
		t.Fatalf("no-hit /search did not serialize hits as []: %s", buf[:n])
	}
}

// TestSearchCaseFolding: queries and indexed names fold through
// textkit.Fold on both sides, so a case variant of a phrase's word finds
// the phrase — including the Greek final sigma, which strings.ToLower
// keeps apart from the medial form an uppercase query lowercases to.
func TestSearchCaseFolding(t *testing.T) {
	snap := testSnapshot(t)
	snap.RolePhrases = append(snap.RolePhrases, store.TopicPhrases{
		Path:    "o/2",
		Phrases: []core.RankedPhrase{{Display: "Σίσυφος learning", Score: 1}},
	})
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	for q, want := range map[string]string{
		"PROCESSING": "query processing",
		"ΣΊΣΥΦΟΣ":    "Σίσυφος learning",
	} {
		found := false
		for _, h := range getJSON(t, ts.URL+"/search?q="+url.QueryEscape(q), http.StatusOK)["hits"].([]any) {
			m := h.(map[string]any)
			found = found || (m["kind"] == "phrase" && m["name"] == want && m["distance"].(float64) == 0)
		}
		if !found {
			t.Errorf("/search?q=%s missed the phrase %q", q, want)
		}
	}
}

// TestEntityAdvisor checks the advisor block of author profiles resolved
// by id digits: author 2 is advised by 0 with the argmax rank mass over
// both candidates, and author 0, with no candidates, gets the virtual
// no-advisor node (-1). An id outside the network names no entity.
func TestEntityAdvisor(t *testing.T) {
	ts := newTestServer(t, Options{})
	adv := getJSON(t, ts.URL+"/entity/2", http.StatusOK)["advisor"].(map[string]any)
	if adv["advisor"].(float64) != 0 || adv["score"].(float64) != 0.6 {
		t.Fatalf("author 2 advisor block = %v", adv)
	}
	if cands := adv["candidates"].([]any); len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	adv = getJSON(t, ts.URL+"/entity/0", http.StatusOK)["advisor"].(map[string]any)
	if adv["advisor"].(float64) != -1 {
		t.Fatalf("rootless author advisor = %v", adv)
	}
	getJSON(t, ts.URL+"/entity/99", http.StatusNotFound)
}

// TestEntityAdvisorScoreWithDuplicateCandidates is the regression test for
// the score fallback: the score used to be rediscovered by scanning the
// candidate list for the predicted advisor id, so a duplicated candidate
// made the *last* duplicate's rank win — here 0.3 instead of the argmax
// mass 0.6. The score must be the argmax entry of the rank vector itself.
func TestEntityAdvisorScoreWithDuplicateCandidates(t *testing.T) {
	snap := testSnapshot(t)
	snap.Advisor = &store.Advisor{
		Net: &tpfg.Network{
			NumAuthors: 3,
			First:      []int{1995, 2003, 2004},
			Cands: [][]tpfg.Candidate{
				nil,
				{{Advisor: 0, Start: 2003, End: 2007}},
				// Author 0 appears twice (distinct candidate intervals).
				{{Advisor: 0, Start: 2004, End: 2006}, {Advisor: 0, Start: 2006, End: 2008}},
			},
		},
		Rank: [][]float64{{1}, {0.2, 0.8}, {0.1, 0.6, 0.3}},
	}
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	adv := getJSON(t, ts.URL+"/entity/2", http.StatusOK)["advisor"].(map[string]any)
	if adv["advisor"].(float64) != 0 {
		t.Fatalf("advisor block = %v", adv)
	}
	if score := adv["score"].(float64); score != 0.6 {
		t.Fatalf("score = %v, want the argmax mass 0.6 (duplicate-candidate scan reported the last match)", score)
	}
}

func TestEntityWordProfile(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/entity/query", http.StatusOK)
	res := got["resolved"].(map[string]any)
	if res["kind"] != "word" || res["name"] != "query" || res["distance"].(float64) != 0 {
		t.Fatalf("resolved = %v", res)
	}
	// Composed in one response: topic mixture over the flat model,
	// hierarchy placements, and the phrases carrying the word.
	mix := got["topic_mixture"].([]any)
	if len(mix) == 0 {
		t.Fatalf("no topic mixture: %v", got)
	}
	sum := 0.0
	for _, m := range mix {
		sum += m.(map[string]any)["p"].(float64)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("mixture not normalized: %v", mix)
	}
	// "query" is a topic-0 word in the fitted model: the mixture must be
	// decisively on one topic, not uniform.
	if top := mix[0].(map[string]any)["p"].(float64); top < 0.7 {
		t.Fatalf("mixture indecisive: %v", mix)
	}
	if nodes := got["nodes"].([]any); len(nodes) == 0 {
		t.Fatalf("no hierarchy nodes: %v", got)
	}
	phrases := got["phrases"].([]any)
	if len(phrases) != 1 || phrases[0].(map[string]any)["display"] != "query processing" {
		t.Fatalf("phrases = %v", phrases)
	}
}

func TestEntityFuzzyResolution(t *testing.T) {
	ts := newTestServer(t, Options{})
	// Edit distance 1.
	got := getJSON(t, ts.URL+"/entity/databse", http.StatusOK)
	res := got["resolved"].(map[string]any)
	if res["name"] != "database" || res["distance"].(float64) != 1 {
		t.Fatalf("distance-1 resolution = %v", res)
	}
	// Edit distance 2 on a long token.
	got = getJSON(t, ts.URL+"/entity/procesng", http.StatusOK)
	res = got["resolved"].(map[string]any)
	if res["name"] != "processing" || res["distance"].(float64) != 2 {
		t.Fatalf("distance-2 resolution = %v", res)
	}
	// Beyond the bound: 404 with a clear message.
	got = getJSON(t, ts.URL+"/entity/praacesng", http.StatusNotFound)
	if msg, _ := got["error"].(string); !strings.Contains(msg, "no entity matching") {
		t.Fatalf("miss error = %v", got)
	}
	getJSON(t, ts.URL+"/entity/", http.StatusBadRequest)
}

func TestEntityPhraseProfile(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/entity/"+url.PathEscape("query processing"), http.StatusOK)
	res := got["resolved"].(map[string]any)
	if res["kind"] != "phrase" {
		t.Fatalf("resolved = %v", res)
	}
	occ := got["occurrences"].([]any)
	if len(occ) != 1 || occ[0].(map[string]any)["path"] != "o/1" {
		t.Fatalf("occurrences = %v", occ)
	}
	words := got["words"].([]any)
	if len(words) != 2 || words[0].(map[string]any)["word"] != "query" || words[0].(map[string]any)["id"].(float64) != 0 {
		t.Fatalf("words = %v", words)
	}
	if _, ok := got["topic_mixture"]; !ok {
		t.Fatalf("phrase profile missing topic mixture: %v", got)
	}
}

func TestEntityAuthorProfile(t *testing.T) {
	snap := testSnapshot(t)
	// Label the authors through an author-typed entity list so name
	// resolution and hierarchy placement both engage.
	h := snap.Hierarchy
	h.TypeNames[1] = "author"
	nodes := h.Root.Children
	nodes[0].Entities[1] = []core.RankedEntity{{ID: 0, Display: "John Smith", Score: 0.9}}
	nodes[1].Entities[1] = []core.RankedEntity{{ID: 2, Display: "Ada Lovelace", Score: 0.7}}
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Fuzzy name lookup: "jon smith" is one edit from "John Smith".
	got := getJSON(t, ts.URL+"/entity/"+url.PathEscape("jon smith"), http.StatusOK)
	res := got["resolved"].(map[string]any)
	if res["kind"] != "author" || res["id"].(float64) != 0 || res["name"] != "John Smith" {
		t.Fatalf("resolved = %v", res)
	}
	// Author 0 advises authors 1 and 2 in the test snapshot's ranking.
	advisees := got["advisees"].([]any)
	if len(advisees) != 2 {
		t.Fatalf("advisees = %v", advisees)
	}
	if advisees[0].(map[string]any)["author"].(float64) != 1 || advisees[0].(map[string]any)["score"].(float64) != 0.8 {
		t.Fatalf("advisee 0 = %v", advisees[0])
	}
	adv := got["advisor"].(map[string]any)
	if adv["advisor"].(float64) != -1 {
		t.Fatalf("author 0 advisor = %v", adv)
	}
	nodesOut := got["nodes"].([]any)
	if len(nodesOut) != 1 || nodesOut[0].(map[string]any)["path"] != "o/1" {
		t.Fatalf("author nodes = %v", nodesOut)
	}

	// Advisee side: author 2's profile names its advisor with the argmax
	// score and its candidate list.
	got = getJSON(t, ts.URL+"/entity/"+url.PathEscape("Ada Lovelace"), http.StatusOK)
	adv = got["advisor"].(map[string]any)
	if adv["advisor"].(float64) != 0 || adv["score"].(float64) != 0.6 {
		t.Fatalf("advisor block = %v", adv)
	}
	if cands := adv["candidates"].([]any); len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
}

// TestEntityIndexBuildDeterministic is the serving half of the
// bit-identical contract: two artifact builds over one snapshot yield
// search indexes with identical checksums.
func TestEntityIndexBuildDeterministic(t *testing.T) {
	snap := testSnapshot(t)
	opt := Options{}.withDefaults()
	a1, err := buildArtifact(snap, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := buildArtifact(snap, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.index.Checksum() != a2.index.Checksum() {
		t.Fatalf("index checksums differ across builds: %x vs %x", a1.index.Checksum(), a2.index.Checksum())
	}
	if a1.index.Entries() == 0 {
		t.Fatal("index is empty for a fully-populated snapshot")
	}
}

// TestConditionalGETAcrossQueryStrings pins the generation-ETag semantics
// the search routes inherit: the validator names the *generation*, not the
// response body, so a client that has any response of generation N may
// revalidate a different query string of the same generation and still get
// 304 — by design, since every response of one generation is immutable.
func TestConditionalGETAcrossQueryStrings(t *testing.T) {
	ts := newTestServer(t, Options{})
	get := func(path, inm string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}
	code, tag := get("/search?q=query", "")
	if code != http.StatusOK || tag != `"gen-1"` {
		t.Fatalf("initial GET: %d %q", code, tag)
	}
	// Distinct query string, same generation: still 304.
	for _, p := range []string{"/search?q=network", "/entity/query", "/entity/2"} {
		if code, _ := get(p, tag); code != http.StatusNotModified {
			t.Fatalf("GET %s with %s: %d, want 304", p, tag, code)
		}
	}
	// Error responses never validate: a bad limit is 400 even with a
	// matching validator, and carries no ETag.
	code, tag = get("/search?q=query&limit=0", `"gen-1"`)
	if code != http.StatusBadRequest || tag != "" {
		t.Fatalf("error response: %d %q", code, tag)
	}
}

// TestLookupInputCaps pins the lookup routes' input bounds: a query or
// entity name over 256 bytes or 8 tokens, or a limit over 100, is a 400
// naming the cap — even with a matching validator, since the check runs
// before the conditional GET — while inputs at the caps are served.
func TestLookupInputCaps(t *testing.T) {
	ts := newTestServer(t, Options{})
	words := func(n int) string { return strings.TrimSpace(strings.Repeat("query ", n)) }
	long := strings.Repeat("a", 257)
	huge := strings.Repeat("database ", 64<<10/9)
	cases := []struct {
		name, path string
		status     int
		msg        string
	}{
		{"search at caps", "/search?limit=100&q=" + url.QueryEscape(words(8)), http.StatusOK, ""},
		{"search 256 bytes", "/search?q=" + strings.Repeat("a", 256), http.StatusOK, ""},
		{"search 257 bytes", "/search?q=" + long, http.StatusBadRequest, "cap of 256 bytes"},
		{"search 64KB", "/search?q=" + url.QueryEscape(huge), http.StatusBadRequest, "cap of 256 bytes"},
		{"search 9 tokens", "/search?q=" + url.QueryEscape(words(9)), http.StatusBadRequest, "cap of 8 tokens"},
		{"search limit 101", "/search?q=query&limit=101", http.StatusBadRequest, "cap of 100"},
		{"entity at caps", "/entity/" + url.PathEscape(words(8)), http.StatusOK, ""},
		{"entity 257 bytes", "/entity/" + long, http.StatusBadRequest, "cap of 256 bytes"},
		{"entity 64KB", "/entity/" + url.PathEscape(huge), http.StatusBadRequest, "cap of 256 bytes"},
		{"entity 9 tokens", "/entity/" + url.PathEscape(words(9)), http.StatusBadRequest, "cap of 8 tokens"},
	}
	for _, c := range cases {
		for _, inm := range []string{"", `"gen-1"`} {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+c.path, nil)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := c.status
			if inm != "" && want == http.StatusOK {
				want = http.StatusNotModified
			}
			if resp.StatusCode != want {
				t.Errorf("%s (If-None-Match %q): status %d, want %d (%s)", c.name, inm, resp.StatusCode, want, body)
				continue
			}
			if c.msg != "" && !strings.Contains(string(body), c.msg) {
				t.Errorf("%s: error %s does not name the cap (%q)", c.name, body, c.msg)
			}
		}
	}
}

// TestSearchMetricsGauges checks the index-size families appear on
// /metrics and describe the live artifact.
func TestSearchMetricsGauges(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, fam := range []string{"lesmd_search_index_entries", "lesmd_search_index_terms", "lesmd_search_index_postings"} {
		if !strings.Contains(body, "# TYPE "+fam+" gauge") {
			t.Fatalf("family %s missing from /metrics", fam)
		}
	}
	// 10 vocabulary words + 2 phrases + 3 authors = 15 entries.
	if !strings.Contains(body, "lesmd_search_index_entries 15") {
		t.Fatalf("entries gauge wrong:\n%s", grepLines(body, "lesmd_search_index"))
	}
	// Latency histograms exist for the new routes via the fixed universe.
	for _, route := range []string{"search", "entity"} {
		if !strings.Contains(body, `lesmd_http_request_duration_seconds_count{route="`+route+`"}`) {
			t.Fatalf("route %s missing from duration histogram", route)
		}
	}
}

// TestSearchOnSparseSnapshots drives /search and /entity against
// snapshots missing most sections: a vocab-only snapshot still searches
// words; an advisor-only snapshot still resolves author ids.
func TestSearchOnSparseSnapshots(t *testing.T) {
	s, err := New(&store.Snapshot{Vocab: []string{"alpha", "beta"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	got := getJSON(t, ts.URL+"/search?q=alpha", http.StatusOK)
	if hits := got["hits"].([]any); len(hits) != 1 || hits[0].(map[string]any)["kind"] != "word" {
		t.Fatalf("vocab-only search = %v", got)
	}
	// Word profile with no topics/hierarchy/roles: just the resolution.
	got = getJSON(t, ts.URL+"/entity/alpha", http.StatusOK)
	if _, hasMix := got["topic_mixture"]; hasMix {
		t.Fatalf("sparse snapshot produced a mixture: %v", got)
	}

	adv, err := New(&store.Snapshot{Advisor: &store.Advisor{
		Net:  &tpfg.Network{NumAuthors: 2, First: []int{1990, 2000}, Cands: [][]tpfg.Candidate{nil, {{Advisor: 0, Start: 2000, End: 2004}}}},
		Rank: [][]float64{{1}, {0.3, 0.7}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ats := httptest.NewServer(adv.Handler())
	t.Cleanup(func() { ats.Close(); adv.Close() })
	got = getJSON(t, ats.URL+"/entity/1", http.StatusOK)
	if got["advisor"].(map[string]any)["advisor"].(float64) != 0 {
		t.Fatalf("advisor-only profile = %v", got)
	}
}

// TestSearchIndexRebuildsOnReload pins the generation lifecycle: a hot
// reload swaps in a freshly built index atomically with the rest of the
// artifact, so names that only the new snapshot knows become searchable
// exactly when the generation bumps — and the old generation's validator
// stops matching.
func TestSearchIndexRebuildsOnReload(t *testing.T) {
	ts, s := newTestServerPair(t, Options{})
	if hits := getJSON(t, ts.URL+"/search?q=quantum", http.StatusOK)["hits"].([]any); len(hits) != 0 {
		t.Fatalf("generation 1 already knows quantum: %v", hits)
	}
	getJSON(t, ts.URL+"/entity/quantum", http.StatusNotFound)

	snap2 := testSnapshot(t)
	snap2.Vocab[4] = "quantum" // replaces "storage"; shapes stay intact
	if err := s.Reload(snap2, nil); err != nil {
		t.Fatal(err)
	}
	got := getJSON(t, ts.URL+"/search?q=quantum", http.StatusOK)
	hits := got["hits"].([]any)
	if len(hits) != 1 || hits[0].(map[string]any)["name"] != "quantum" {
		t.Fatalf("post-reload search = %v", got)
	}
	ent := getJSON(t, ts.URL+"/entity/quantum", http.StatusOK)
	if gen := ent["generation"].(float64); gen != 2 {
		t.Fatalf("post-reload entity generation = %v", gen)
	}
	// The replaced word left the index with its generation.
	if hits := getJSON(t, ts.URL+"/search?q=storage", http.StatusOK)["hits"].([]any); len(hits) != 0 {
		t.Fatalf("old generation's word still indexed: %v", hits)
	}
	// And a generation-1 validator no longer revalidates.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/search?q=quantum", nil)
	req.Header.Set("If-None-Match", `"gen-1"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"gen-2"` {
		t.Fatalf("stale validator: %d %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// grepLines filters body to the lines containing needle, for test
// diagnostics.
func grepLines(body, needle string) string {
	var out []string
	for _, ln := range strings.Split(body, "\n") {
		if strings.Contains(ln, needle) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// hierarchyPhraseSnapshot is the serve fixture without its roles section,
// so phrases come from the hierarchy's attached lists, plus phrases on the
// root that repeat a display at a second path and tie a score: the
// profile phrase lists then need their full order (score, display, path).
func hierarchyPhraseSnapshot(t testing.TB) *store.Snapshot {
	snap := testSnapshot(t)
	snap.RolePhrases = nil
	snap.Hierarchy.Root.Phrases = []core.RankedPhrase{
		{Words: []int{0, 2}, Display: "query index", Score: 3},
		{Words: []int{0, 1}, Display: "Query Processing", Score: 1},
	}
	return snap
}

// TestEntityBodiesPinned pins exact /entity response bodies — word, fuzzy
// word, phrase and author profiles — on the serve fixture and on its
// hierarchy-phrase variant. The bodies were captured from the
// implementation that kept its own phrase table beside the search index;
// the index-backed profiles must reproduce them byte for byte.
func TestEntityBodiesPinned(t *testing.T) {
	cases := []struct {
		fixture, path, body string
	}{
		{"roles", "/entity/query", `{"generation":1,"nodes":[{"path":"o","p":0.2856258924321752},{"path":"o/1","p":0.2856258924321752},{"path":"o/2","p":0.00003702332469455757}],"phrases":[{"path":"o/1","display":"query processing","score":3}],"query":"query","resolved":{"kind":"word","name":"query","id":0,"score":2,"distance":0,"matched":1,"of":1},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}]}`},
		{"roles", "/entity/procesing", `{"generation":1,"nodes":[{"path":"o","p":0.2856258924321752},{"path":"o/1","p":0.2856258924321752},{"path":"o/2","p":0.00003702332469455757}],"phrases":[{"path":"o/1","display":"query processing","score":3}],"query":"procesing","resolved":{"kind":"word","name":"processing","id":1,"score":0.5,"distance":1,"matched":1,"of":1},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}]}`},
		{"roles", "/entity/query%20processing", `{"generation":1,"occurrences":[{"path":"o/1","display":"query processing","score":3}],"query":"query processing","resolved":{"kind":"phrase","name":"query processing","id":0,"path":"o/1","weight":3,"score":2,"distance":0,"matched":2,"of":2},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}],"words":[{"word":"query","id":0},{"word":"processing","id":1}]}`},
		{"roles", "/entity/0", `{"advisees":[{"author":1,"score":0.8},{"author":2,"score":0.6}],"advisor":{"advisor":-1,"candidates":[],"score":1},"generation":1,"query":"0","resolved":{"kind":"author","name":"0","id":0,"score":2,"distance":0,"matched":1,"of":1}}`},
		{"roles", "/entity/2", `{"advisees":[],"advisor":{"advisor":0,"candidates":[{"advisor":0,"rank":0.6,"start":2004,"end":2008},{"advisor":1,"rank":0.3,"start":2005,"end":2008}],"score":0.6},"generation":1,"query":"2","resolved":{"kind":"author","name":"2","id":2,"score":2,"distance":0,"matched":1,"of":1}}`},
		{"hierarchy", "/entity/query", `{"generation":1,"nodes":[{"path":"o","p":0.2856258924321752},{"path":"o/1","p":0.2856258924321752},{"path":"o/2","p":0.00003702332469455757}],"phrases":[{"path":"o","display":"query index","score":3},{"path":"o/1","display":"query processing","score":3},{"path":"o","display":"Query Processing","score":1}],"query":"query","resolved":{"kind":"word","name":"query","id":0,"score":2,"distance":0,"matched":1,"of":1},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}]}`},
		{"hierarchy", "/entity/processing", `{"generation":1,"nodes":[{"path":"o","p":0.2856258924321752},{"path":"o/1","p":0.2856258924321752},{"path":"o/2","p":0.00003702332469455757}],"phrases":[{"path":"o/1","display":"query processing","score":3},{"path":"o","display":"Query Processing","score":1}],"query":"processing","resolved":{"kind":"word","name":"processing","id":1,"score":2,"distance":0,"matched":1,"of":1},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}]}`},
		{"hierarchy", "/entity/query%20processing", `{"generation":1,"occurrences":[{"path":"o","display":"Query Processing","score":1},{"path":"o/1","display":"query processing","score":3}],"query":"query processing","resolved":{"kind":"phrase","name":"Query Processing","id":1,"path":"o","weight":1,"score":2,"distance":0,"matched":2,"of":2},"topic_mixture":[{"topic":0,"p":0.9998333712490334},{"topic":1,"p":0.0001666287509666036}],"words":[{"word":"query","id":0},{"word":"processing","id":1}]}`},
		{"hierarchy", "/entity/query%20index", `{"generation":1,"occurrences":[{"path":"o","display":"query index","score":3}],"query":"query index","resolved":{"kind":"phrase","name":"query index","id":0,"path":"o","weight":3,"score":2,"distance":0,"matched":2,"of":2},"topic_mixture":[{"topic":0,"p":0.9997778530081233},{"topic":1,"p":0.0002221469918766734}],"words":[{"word":"query","id":0},{"word":"index","id":2}]}`},
	}
	fixtures := map[string]func(testing.TB) *store.Snapshot{
		"roles":     testSnapshot,
		"hierarchy": hierarchyPhraseSnapshot,
	}
	servers := map[string]*httptest.Server{}
	for name, snap := range fixtures {
		s, err := New(snap(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		servers[name] = ts
	}
	for _, c := range cases {
		resp, err := http.Get(servers[c.fixture].URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != c.body+"\n" {
			t.Errorf("%s %s: status %d, body\n%s\nwant\n%s", c.fixture, c.path, resp.StatusCode, body, c.body)
		}
	}
}
