package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lesm"
	"lesm/internal/core"
	"lesm/internal/search"
	"lesm/internal/synth"
	"lesm/internal/textkit"
)

// The lookup-reload workload: an open loop of name lookups and structure
// reads, with the served snapshot republished and reloaded at a fixed
// cadence among them.
const (
	kindSearch = iota + 1
	kindEntity
	kindTopWords
	kindNode
	kindReload

	lookupTopics = 50
	// lookupExtraDocs documents of another domain make the two served
	// snapshots' vocabularies differ, so each has words the other lacks.
	lookupExtraDocs = 40
	// lookupFaculty founding faculty grow the genealogy to a few thousand
	// authors, whose id digits dominate the fuzzy-scanned term dictionary.
	lookupFaculty = 60
	// searchTypoShare of /search queries carry a 1-2 edit typo. This is an
	// assumption, not a measurement: no record of real lookup traffic
	// exists. 0.3 keeps exact hits the majority while making the fuzzy
	// dictionary scan, which costs about 300 times an exact hit, a visible
	// share of the work. The report prints the share actually sent; the
	// traced run's search.fuzzy_token_frac is the share of query tokens that
	// went fuzzy.
	searchTypoShare = 0.3
	reloadEvery     = time.Second
	targetPoolSize  = 1024
)

// lookupLadder was fixed after measuring capacity on a 2-CPU host with
// two client connections (see BENCHMARK.md).
var lookupLadder = ladder{nominal: 1500, steps: []float64{5000, 6000, 7000, 8000}, high: 3, limitMS: 25}

// target is a name a lookup asks for and the entity it must resolve to.
type target struct {
	kind search.Kind
	name string
}

// lookupTargets are the prepared lookup inputs: names every served
// snapshot knows, topic ids and hierarchy node ids.
type lookupTargets struct {
	names  []target
	topics int
	nodes  []string
}

// newLookupTargets draws names present in every given artifact — words,
// phrase displays and author ids — half words, a quarter each of phrases
// and authors.
func newLookupTargets(seed int64, arts []*lesm.Artifact, numAuthors int) (*lookupTargets, error) {
	inAll := func(names func(*lesm.Artifact) []string) []string {
		count := map[string]int{}
		for _, a := range arts {
			seen := map[string]bool{}
			for _, n := range names(a) {
				if !seen[n] {
					seen[n] = true
					count[n]++
				}
			}
		}
		var out []string
		for n, c := range count {
			if c == len(arts) {
				out = append(out, n)
			}
		}
		sort.Strings(out)
		return out
	}
	// A one-word phrase display names two entities, a word and a phrase:
	// such names are left out, so each target has one right answer.
	oneWord := map[string]bool{}
	phrases := inAll(func(a *lesm.Artifact) []string {
		var out []string
		for _, tp := range a.RolePhrases {
			for _, p := range tp.Phrases {
				if toks := textkit.Tokenize(p.Display); len(toks) == 1 {
					oneWord[toks[0]] = true
				} else {
					out = append(out, p.Display)
				}
			}
		}
		return out
	})
	words := inAll(func(a *lesm.Artifact) []string {
		var out []string
		for _, w := range a.Vocab.Words() {
			if !oneWord[textkit.Fold(w)] {
				out = append(out, w)
			}
		}
		return out
	})
	nodes := inAll(func(a *lesm.Artifact) []string {
		var out []string
		a.Hierarchy.Root.Walk(func(n *core.TopicNode) { out = append(out, strings.ReplaceAll(n.Path, "/", ".")) })
		return out
	})
	if len(words) == 0 || len(phrases) == 0 || len(nodes) == 0 || numAuthors == 0 {
		return nil, fmt.Errorf("lookup targets: %d words, %d phrases, %d nodes, %d authors", len(words), len(phrases), len(nodes), numAuthors)
	}
	t := &lookupTargets{topics: len(arts[0].Topics.Phi), nodes: nodes}
	for _, a := range arts[1:] {
		if k := len(a.Topics.Phi); k < t.topics {
			t.topics = k
		}
	}
	rng := rand.New(rand.NewSource(sub(seed, 7)))
	for i := 0; i < targetPoolSize; i++ {
		switch x := rng.Float64(); {
		case x < 0.5:
			t.names = append(t.names, target{search.KindWord, words[rng.Intn(len(words))]})
		case x < 0.75:
			t.names = append(t.names, target{search.KindPhrase, phrases[rng.Intn(len(phrases))]})
		default:
			t.names = append(t.names, target{search.KindAuthor, strconv.Itoa(rng.Intn(numAuthors))})
		}
	}
	return t, nil
}

// mix is the lookup traffic: 40% /search (a share with typos), 30%
// /entity, 15% each /topics/:k/top-words and /hierarchy/node/:id. The
// shares are assumptions, not measurements: no record of real lookup
// traffic exists. They make the name lookups, which run the search layer,
// the bulk of the load, with the two structure reads as a cheap minority.
// The report prints the mix actually sent.
func (t *lookupTargets) mix() []opMix {
	return []opMix{
		{kind: kindSearch, weight: 0.40, pool: len(t.names), typoShare: searchTypoShare},
		{kind: kindEntity, weight: 0.30, pool: len(t.names)},
		{kind: kindTopWords, weight: 0.15, pool: t.topics},
		{kind: kindNode, weight: 0.15, pool: len(t.nodes)},
	}
}

// typo applies 1 edit to a 3-5 rune token of name, or 1-2 edits to a
// longer one (the fuzzy bounds of search.MaxDist), keyed by seed.
func typo(name string, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	toks := strings.Fields(name)
	var eligible []int
	for i, tk := range toks {
		if search.MaxDist(tk) > 0 {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return name
	}
	ti := eligible[rng.Intn(len(eligible))]
	r := []rune(toks[ti])
	edits := search.MaxDist(toks[ti])
	if edits > 1 {
		edits = 1 + rng.Intn(edits)
	}
	alphabet := []rune("abcdefghijklmnopqrstuvwxyz")
	if r[0] >= '0' && r[0] <= '9' {
		alphabet = []rune("0123456789")
	}
	for e := 0; e < edits; e++ {
		p := rng.Intn(len(r))
		switch rng.Intn(3) {
		case 0: // substitute
			r[p] = alphabet[rng.Intn(len(alphabet))]
		case 1: // delete (keep at least 3 runes so the token stays fuzzy)
			if len(r) > 3 {
				r = append(r[:p], r[p+1:]...)
			} else {
				r[p] = alphabet[rng.Intn(len(alphabet))]
			}
		default: // insert
			r = append(r[:p], append([]rune{alphabet[rng.Intn(len(alphabet))]}, r[p:]...)...)
		}
	}
	toks[ti] = string(r)
	return strings.Join(toks, " ")
}

// lookupRec is one traced lookup kept for replay.
type lookupRec struct {
	kind int
	q    string
	gen  uint64
	rtt  time.Duration
}

// lookupLoad drives the lookup routes and the reloads among them.
type lookupLoad struct {
	ls *liveServer
	t  *lookupTargets
	// arts are the servable artifacts; generation g serves arts[(g-1)%len].
	arts []*lesm.Artifact
	path string
	// only[i] is a word arts[i] has and the other artifact lacks.
	only []string

	mu      sync.Mutex // serializes reloads
	gen     uint64
	reloads []time.Duration

	traceMu sync.Mutex
	tr      *tracer
	recs    []lookupRec
}

func (l *lookupLoad) do(i int, r request) error {
	if r.kind == kindReload {
		return l.reload()
	}
	var sp *activeSpan
	if l.tr != nil && i%2 == 0 {
		sp = l.tr.begin("bench.request", uint64(2_000_000+i), nil)
	}
	t0 := time.Now()
	var (
		hdr http.Header
		err error
		q   string
	)
	switch r.kind {
	case kindSearch:
		tg := l.t.names[r.pick]
		q = tg.name
		if r.typo != 0 {
			q = typo(q, r.typo)
		}
		var body []byte
		body, hdr, err = l.ls.do(http.MethodGet, "/search?limit=10&q="+url.QueryEscape(q), nil)
		if err == nil && r.typo == 0 {
			err = checkSearch(body, tg)
		}
	case kindEntity:
		tg := l.t.names[r.pick]
		q = tg.name
		var body []byte
		body, hdr, err = l.ls.do(http.MethodGet, "/entity/"+url.PathEscape(q), nil)
		if err == nil {
			err = checkEntity(body, tg)
		}
	case kindTopWords:
		_, _, err = l.ls.do(http.MethodGet, fmt.Sprintf("/topics/%d/top-words?n=10", r.pick), nil)
	case kindNode:
		_, _, err = l.ls.do(http.MethodGet, "/hierarchy/node/"+l.t.nodes[r.pick], nil)
	default:
		err = fmt.Errorf("unknown lookup kind %d", r.kind)
	}
	rtt := time.Since(t0)
	sp.end()
	if sp != nil && (r.kind == kindSearch || r.kind == kindEntity) {
		l.traceMu.Lock()
		l.recs = append(l.recs, lookupRec{kind: r.kind, q: q, gen: generation(hdr), rtt: rtt})
		l.traceMu.Unlock()
	}
	return err
}

// reload publishes the other artifact over the served path and reloads:
// the generation must advance by one, and a word only the new snapshot
// has must then resolve. Its time runs from starting Save to the reload
// response.
func (l *lookupLoad) reload() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := int(l.gen % uint64(len(l.arts)))
	t0 := time.Now()
	if err := lesm.Save(l.path, l.arts[next]); err != nil {
		return err
	}
	gen, err := l.ls.reload(l.gen)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	l.gen = gen
	l.reloads = append(l.reloads, took)
	word := l.only[next]
	body, _, err := l.ls.do(http.MethodGet, "/entity/"+url.PathEscape(word), nil)
	if err != nil {
		return fmt.Errorf("after reload to generation %d, word %q only it has: %w", gen, word, err)
	}
	return checkEntity(body, target{search.KindWord, word})
}

// checkSearch requires an exact query's top hit to be the target.
func checkSearch(body []byte, tg target) error {
	var resp struct {
		Hits []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Hits) == 0 || resp.Hits[0].Kind != tg.kind.String() || resp.Hits[0].Name != tg.name {
		return fmt.Errorf("/search %q: top hit %+v, want %s %q", tg.name, resp.Hits, tg.kind, tg.name)
	}
	return nil
}

// checkEntity requires an exact name to resolve to the target.
func checkEntity(body []byte, tg target) error {
	var resp struct {
		Resolved struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"resolved"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Resolved.Kind != tg.kind.String() || resp.Resolved.Name != tg.name {
		return fmt.Errorf("/entity %q resolved to %s %q, want %s %q", tg.name, resp.Resolved.Kind, resp.Resolved.Name, tg.kind, tg.name)
	}
	return nil
}

// lookupLayers replays traced lookups directly against the index of the
// generation that answered them and reports the search and serve-overhead
// layer metrics.
func (b *bench) lookupLayers(l *lookupLoad) {
	var query, resolve, overhead []time.Duration
	var tokens, fuzzy, calls, hits int
	for _, rec := range l.recs {
		art := l.arts[0]
		if rec.gen > 0 {
			art = l.arts[(rec.gen-1)%uint64(len(l.arts))]
		}
		ix := art.SearchIndex()
		t0 := time.Now()
		found := false
		if rec.kind == kindSearch {
			found = len(ix.Search(rec.q, 10)) > 0
		} else {
			_, found = ix.Resolve(rec.q)
		}
		took := time.Since(t0)
		if rec.kind == kindSearch {
			query = append(query, took)
		} else {
			resolve = append(resolve, took)
		}
		overhead = append(overhead, rec.rtt-took)
		calls++
		if found {
			hits++
		}
		seen := map[string]bool{}
		for _, tok := range textkit.Tokenize(rec.q) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			tokens++
			if search.MaxDist(tok) > 0 && !exactTerm(ix, tok) {
				fuzzy++
			}
		}
	}
	b.setLayer("search.query_p50_us", percentile(durationsUS(query), 50), "us")
	b.setLayer("search.query_p99_us", percentile(durationsUS(query), 99), "us")
	b.setLayer("search.resolve_p50_us", percentile(durationsUS(resolve), 50), "us")
	b.setLayer("search.resolve_p99_us", percentile(durationsUS(resolve), 99), "us")
	b.setLayer("search.fuzzy_token_frac", ratio(float64(fuzzy), float64(tokens)), "ratio")
	b.setLayer("search.hit_frac", ratio(float64(hits), float64(calls)), "ratio")
	b.setLayer("serve.lookup_overhead_p50_us", percentile(durationsUS(overhead), 50), "us")
}

// exactTerm reports whether tok is in the index's term dictionary: a
// one-token search then matches at distance 0.
func exactTerm(ix *lesm.SearchIndex, tok string) bool {
	h := ix.Search(tok, 1)
	return len(h) > 0 && h[0].Distance == 0
}

// lookupState is one lookup-reload set-up.
type lookupState struct {
	fits [2]*fitOutput
	ls   *liveServer
	new  time.Duration
	load *lookupLoad
}

func (b *bench) setupLookup(rep int) (*lookupState, error) {
	st := &lookupState{}
	domains := [2]synth.LongTextDomain{synth.DomainYelp, synth.DomainAPNews}
	for i, d := range domains {
		in := genFitInput(b.seed, serveDocs, d, lookupExtraDocs, lookupFaculty)
		fit, err := runPipeline(b.tr, uint64(10*rep+i+1), in, fitParams{topics: lookupTopics, seed: b.seed}, snapshotPath(b.dir, fmt.Sprintf("lookup-%d", i)))
		if err != nil {
			return nil, err
		}
		st.fits[i] = fit
	}
	arts := []*lesm.Artifact{st.fits[0].art, st.fits[1].art}
	t, err := newLookupTargets(b.seed, arts, st.fits[0].numAuthors)
	if err != nil {
		return nil, err
	}
	only := make([]string, 2)
	for i := range arts {
		for _, w := range arts[i].Vocab.Words() {
			if _, ok := arts[1-i].Vocab.ID(w); !ok {
				only[i] = w
				break
			}
		}
		if only[i] == "" {
			return nil, fmt.Errorf("snapshot %d has no word the other lacks", i)
		}
	}
	served := snapshotPath(b.dir, "served")
	if err := lesm.Save(served, arts[0]); err != nil {
		return nil, err
	}
	ls, newDur, err := startServer(served)
	if err != nil {
		return nil, err
	}
	st.ls, st.new = ls, newDur
	st.load = &lookupLoad{ls: ls, t: t, arts: arts, path: served, only: only, gen: ls.srv.Generation()}
	return st, nil
}

func isLookup(r request) bool { return r.kind != kindReload }

func runLookupReload(b *bench) error {
	var st *lookupState
	var fits []*fitOutput
	var news []float64
	err := b.setupReps(3, func(rep int) (func(), error) {
		s, err := b.setupLookup(rep)
		if err != nil {
			return nil, err
		}
		st = s
		fits = append(fits, s.fits[0], s.fits[1])
		news = append(news, s.new.Seconds())
		return func() { s.ls.close() }, nil
	})
	if err != nil {
		return err
	}
	defer st.ls.close()
	load := st.load
	mix := load.t.mix()

	warm := genStream(b.seed, 99, lookupLadder.nominal, 500*time.Millisecond, mix, 0, 0)
	b.runStep(warm, lookupLadder.nominal, isLookup, load.do)
	load.reloads = nil

	if b.traced() {
		load.tr = b.tr
	}
	reqs := genStream(b.seed, 0, lookupLadder.nominal, nominalShare(b), mix, reloadEvery, kindReload)
	b.noteLookupMix(reqs, mix)
	nominal := b.runStep(reqs, lookupLadder.nominal, isLookup, load.do)

	if b.traced() {
		b.traceSplitOverhead(nominal)
		b.generatorLayers(nominal)
		b.lookupLayers(load)
		layerRuns := make([]map[string]float64, len(fits))
		for i, f := range fits {
			layerRuns[i] = pipelineLayers(b.tr, f)
		}
		b.medianLayers(layerRuns, fitLayerUnits)
		b.setLayer("serve.new_s", median(news), "s")
		if err := b.inferProbe(st.ls, load.arts[(load.gen-1)%2], b.dur/6); err != nil {
			return err
		}
		if err := b.swapLayer(st.ls, st.fits[0]); err != nil {
			return err
		}
	} else {
		gen := func(step int, rate float64, dur time.Duration) []request {
			return genStream(b.seed, step, rate, dur, mix, reloadEvery, kindReload)
		}
		b.serveLoad(lookupLadder, nominal, gen, isLookup, load.do)
		b.note("reloads under load: n=%d, median %.4g ms", len(load.reloads), median(durationsMS(load.reloads)))
		load.reloads = nil
		b.reloadCycles(load.reload)
	}
	b.scrapeCheck(st.ls)
	return b.endToEndTail(st.fits[0].art, heldoutDocs(b.seed, 300))
}

// routeNames names the lookup kinds in reports.
var routeNames = map[int]string{kindSearch: "/search", kindEntity: "/entity", kindTopWords: "top-words", kindNode: "node"}

// noteLookupMix reports the route mix and the typo share a stream
// actually carries, beside the assumed shares it was drawn with.
func (b *bench) noteLookupMix(reqs []request, mix []opMix) {
	var n, searches, typos int
	count := map[int]int{}
	for _, r := range reqs {
		if !isLookup(r) {
			continue
		}
		n++
		count[r.kind]++
		if r.kind == kindSearch {
			searches++
			if r.typo != 0 {
				typos++
			}
		}
	}
	var routes []string
	for _, m := range mix {
		routes = append(routes, fmt.Sprintf("%s %.1f%% (assumed %.0f%%)", routeNames[m.kind], 100*ratio(float64(count[m.kind]), float64(n)), 100*m.weight))
	}
	b.note("traffic sent (an assumed mix, see BENCHMARK.md): %d nominal lookups, %s; %.1f%% of /search with a typo (assumed %.0f%%)",
		n, strings.Join(routes, ", "), 100*ratio(float64(typos), float64(searches)), 100*searchTypoShare)
}

// lookupProbe runs a short traced lookup stream against a server over one
// artifact, for the search and serve layers of a workload whose own
// traffic does not look anything up: a traced run reports every per-layer
// metric.
func (b *bench) lookupProbe(ls *liveServer, art *lesm.Artifact, numAuthors int, dur time.Duration) (stepResult, error) {
	t, err := newLookupTargets(b.seed, []*lesm.Artifact{art}, numAuthors)
	if err != nil {
		return stepResult{}, err
	}
	l := &lookupLoad{ls: ls, t: t, arts: []*lesm.Artifact{art}, tr: b.tr, gen: ls.srv.Generation()}
	step := b.runStep(genStream(b.seed, 50, lookupLadder.nominal, dur, t.mix(), 0, 0), lookupLadder.nominal, isLookup, l.do)
	b.lookupLayers(l)
	return step, nil
}

// inferProbe runs a short traced /infer stream against a server, for the
// fold-in and serve layers of a workload whose own traffic infers nothing.
func (b *bench) inferProbe(ls *liveServer, art *lesm.Artifact, dur time.Duration) error {
	held := heldoutDocs(b.seed, 300)
	pool := prepareInferPool(b.seed, held, titleDocs(b.seed, 200))
	load := newInferLoad(ls, art, pool)
	rtts := map[int][]time.Duration{}
	var mu sync.Mutex
	mix := []opMix{{kind: kindInfer, weight: 1, pool: len(pool)}}
	b.runStep(genStream(b.seed, 51, inferLadder.nominal, dur, mix, 0, 0), inferLadder.nominal, all, func(i int, r request) error {
		sp := b.tr.begin("bench.request", uint64(3_000_000+i), nil)
		err := load.do(i, r)
		rtt := sp.end()
		mu.Lock()
		rtts[r.pick] = append(rtts[r.pick], rtt)
		mu.Unlock()
		return err
	})
	fm := foldInModel(art)
	load.verify(b, fm)
	return b.inferLayers(fm, art, pool, rtts)
}
