package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lesm/internal/core"
	"lesm/internal/lda"
	"lesm/internal/store"
	"lesm/internal/tpfg"
)

// testSnapshot fits a real two-topic Gibbs model over a 10-word vocabulary
// and packages it with a hierarchy, role phrases and an advisor result.
func testSnapshot(t testing.TB) *store.Snapshot {
	t.Helper()
	vocab := []string{"query", "processing", "index", "database", "storage",
		"neural", "network", "learning", "gradient", "descent"}
	var docs [][]int
	for i := 0; i < 30; i++ {
		docs = append(docs, []int{0, 1, 2, 3, 4, 0, 1, 3}, []int{5, 6, 7, 8, 9, 5, 7, 8})
	}
	m, err := lda.Run(docs, len(vocab), lda.Config{K: 2, Seed: 3, Iters: 50})
	if err != nil {
		t.Fatal(err)
	}

	h := core.NewHierarchy()
	h.Root.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[0]}
	a := h.Root.AddChild()
	b := h.Root.AddChild()
	a.Rho, b.Rho = 0.5, 0.5
	a.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[0]}
	b.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[1]}
	a.Phrases = []core.RankedPhrase{{Words: []int{0, 1}, Display: "query processing", Score: 3}}
	b.Phrases = []core.RankedPhrase{{Words: []int{6, 7}, Display: "network learning", Score: 2}}

	totalTokens := 0
	counts := make([]int, len(vocab))
	for _, d := range docs {
		totalTokens += len(d)
		for _, w := range d {
			counts[w]++
		}
	}
	return &store.Snapshot{
		Vocab:  vocab,
		Corpus: &store.CorpusMeta{NumDocs: len(docs), TotalTokens: totalTokens, WordCounts: counts},
		// Alpha is the *fitting* prior (50/K = 25); the server must not use
		// it for fold-in by default or short-doc theta goes near-uniform.
		Topics: &store.Topics{
			K: m.K, V: m.V, Weight: m.Rho, Phi: m.Phi,
			Alpha: m.Alpha, Beta: m.Beta, NKV: m.NKV, NK: m.NK,
		},
		Hierarchy: h,
		RolePhrases: []store.TopicPhrases{
			{Path: "o/1", Phrases: []core.RankedPhrase{{Words: []int{0, 1}, Display: "query processing", Score: 3}}},
			{Path: "o/2", Phrases: []core.RankedPhrase{{Words: []int{6, 7}, Display: "network learning", Score: 2}}},
		},
		Advisor: &store.Advisor{
			Net: &tpfg.Network{
				NumAuthors: 3,
				First:      []int{1995, 2003, 2004},
				Cands: [][]tpfg.Candidate{
					nil,
					{{Advisor: 0, Start: 2003, End: 2007, Local: 0.8}},
					{{Advisor: 0, Start: 2004, End: 2008, Local: 0.5}, {Advisor: 1, Start: 2005, End: 2008, Local: 0.4}},
				},
			},
			Rank: [][]float64{{1}, {0.2, 0.8}, {0.1, 0.6, 0.3}},
		},
	}
}

func newTestServer(t testing.TB, opt Options) *httptest.Server {
	t.Helper()
	ts, _ := newTestServerPair(t, opt)
	return ts
}

// newTestServerPair also returns the Server for tests that drive reloads
// or read internals. The HTTP listener is closed before the Server so no
// handler runs concurrently with Close.
func newTestServerPair(t testing.TB, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	s, err := New(testSnapshot(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// inferBody builds a canonical /infer request body.
func inferBody(t testing.TB, seed int64, ids [][]int, sweeps int) []byte {
	t.Helper()
	m := map[string]any{"seed": seed, "ids": ids}
	if sweeps > 0 {
		m["sweeps"] = sweeps
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postInfer posts an /infer body and returns (status, decoded response).
func postInfer(t testing.TB, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return resp.StatusCode, out
}

// thetaJSON canonicalizes a response's theta for bit-identity comparison.
func thetaJSON(t testing.TB, out map[string]any) string {
	t.Helper()
	b, err := json.Marshal(out["theta"])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getJSON(t testing.TB, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func postJSON(t testing.TB, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
	if int(got["topics"].(float64)) != 2 || int(got["vocab"].(float64)) != 10 {
		t.Fatalf("healthz counts = %v", got)
	}
	secs := got["sections"].([]any)
	if len(secs) != 6 {
		t.Fatalf("sections = %v", secs)
	}
}

func TestTopWords(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/topics/0/top-words?n=3", http.StatusOK)
	words := got["words"].([]any)
	if len(words) != 3 {
		t.Fatalf("words = %v", words)
	}
	first := words[0].(map[string]any)
	if first["word"] == "" || first["p"].(float64) <= 0 {
		t.Fatalf("first word = %v", first)
	}
	// n larger than the vocabulary clamps instead of failing.
	got = getJSON(t, ts.URL+"/topics/1/top-words?n=1000", http.StatusOK)
	if len(got["words"].([]any)) != 10 {
		t.Fatalf("clamped words = %d", len(got["words"].([]any)))
	}
	// The two fitted topics should surface different head words.
	w0 := getJSON(t, ts.URL+"/topics/0/top-words?n=1", http.StatusOK)["words"].([]any)[0].(map[string]any)["word"]
	w1 := getJSON(t, ts.URL+"/topics/1/top-words?n=1", http.StatusOK)["words"].([]any)[0].(map[string]any)["word"]
	if w0 == w1 {
		t.Fatalf("both topics head with %q", w0)
	}
	getJSON(t, ts.URL+"/topics/7/top-words", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/bogus", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/top-words?n=zap", http.StatusBadRequest)
}

func TestNewRejectsShapeInconsistentSnapshot(t *testing.T) {
	// CRC-valid but semantically broken: a rank vector shorter than the
	// candidate list + the no-advisor node. Must be a New error, not a
	// query-time panic.
	snap := testSnapshot(t)
	snap.Advisor.Rank[2] = []float64{0.5}
	if _, err := New(snap, Options{}); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("inconsistent advisor accepted: err = %v", err)
	}
	snap = testSnapshot(t)
	snap.Topics.NK = snap.Topics.NK[:1]
	if _, err := New(snap, Options{}); err == nil {
		t.Fatal("inconsistent topic counts accepted")
	}
}

func TestHierarchyNode(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/hierarchy/node/o/1", http.StatusOK)
	if got["path"] != "o/1" || got["parent"] != "o" {
		t.Fatalf("node = %v", got)
	}
	phrases := got["phrases"].([]any)
	if len(phrases) != 1 || phrases[0].(map[string]any)["display"] != "query processing" {
		t.Fatalf("phrases = %v", phrases)
	}
	// Dotted ids resolve to the same node; the root lists its children.
	if dotted := getJSON(t, ts.URL+"/hierarchy/node/o.1", http.StatusOK); dotted["path"] != "o/1" {
		t.Fatalf("dotted id = %v", dotted)
	}
	root := getJSON(t, ts.URL+"/hierarchy/node/o", http.StatusOK)
	if ch := root["children"].([]any); len(ch) != 2 || ch[0] != "o/1" {
		t.Fatalf("root children = %v", ch)
	}
	getJSON(t, ts.URL+"/hierarchy/node/o/9", http.StatusNotFound)
}

func TestInferTokensAndIDs(t *testing.T) {
	ts := newTestServer(t, Options{})
	byTokens := postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 7,
		"docs": [][]string{{"query", "processing", "database", "index"}, {"neural", "learning", "gradient"}},
	}, http.StatusOK)
	byIDs := postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 7,
		"ids":  [][]int{{0, 1, 3, 2}, {5, 7, 8}},
	}, http.StatusOK)
	if !reflect.DeepEqual(byTokens["theta"], byIDs["theta"]) {
		t.Fatalf("token and id requests disagree:\n%v\n%v", byTokens["theta"], byIDs["theta"])
	}
	theta := byTokens["theta"].([]any)
	d0 := theta[0].([]any)
	d1 := theta[1].([]any)
	// The two docs are from opposite topics: argmax must differ.
	if (d0[0].(float64) > d0[1].(float64)) == (d1[0].(float64) > d1[1].(float64)) {
		t.Fatalf("both docs landed on the same topic: %v %v", d0, d1)
	}
	// The default serving prior must keep short-document theta
	// evidence-driven: a clearly topical 4-token doc should be decisive,
	// not the near-uniform the fitted 50/K prior would force.
	peak := d0[0].(float64)
	if other := d0[1].(float64); other > peak {
		peak = other
	}
	if peak < 0.7 {
		t.Fatalf("default fold-in prior swamped the evidence: %v", d0)
	}
	// Unknown words are dropped, not an error.
	postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 1, "docs": [][]string{{"zzzz", "query"}},
	}, http.StatusOK)
}

func TestOptionsClampNegatives(t *testing.T) {
	// A negative MaxInFlight must not panic make(chan); negative sweeps
	// must not silently disable refinement.
	s, err := New(testSnapshot(t), Options{MaxInFlight: -1, Sweeps: -5, MaxQueue: -3, RouteTimeout: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cap(s.inferSem) != 4 || s.opt.Sweeps != 30 {
		t.Fatalf("negative options not clamped: inflight=%d sweeps=%d", cap(s.inferSem), s.opt.Sweeps)
	}
	if s.opt.MaxQueue != 64 || s.opt.RouteTimeout != 0 {
		t.Fatalf("negative traffic options not clamped: queue=%d timeout=%s", s.opt.MaxQueue, s.opt.RouteTimeout)
	}
	s2, err := New(testSnapshot(t), Options{Sweeps: 99999})
	if err != nil || s2.opt.Sweeps != maxInferSweeps {
		t.Fatalf("oversized default sweeps not capped, err=%v", err)
	}
	s2.Close()
}

// TestInferBadRequests: malformed /infer bodies get 400 before any
// sampling. The per-request document cap (MaxBatchDocs, default 64) is
// checked right after body decode, in the docs and the ids form alike, so
// an oversized request never resolves its documents, waits for a slot or
// reaches fold-in.
func TestInferBadRequests(t *testing.T) {
	ts, s := newTestServerPair(t, Options{MaxInFlight: 1, RouteTimeout: 5 * time.Second})
	docs := func(n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{"query", "index"}
		}
		return out
	}
	ids := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i % 10, (i + 1) % 10}
		}
		return out
	}
	// Hold the only in-flight slot: a request that got as far as the slot
	// wait would answer 503 at its route deadline instead of 400.
	s.inferSem <- struct{}{}
	for _, c := range []struct {
		name string
		body map[string]any
		msg  string
	}{
		{"no documents", map[string]any{"seed": 1}, "exactly one of"},
		{"docs and ids", map[string]any{"seed": 1, "docs": [][]string{{"a"}}, "ids": [][]int{{0}}}, "exactly one of"},
		{"65 docs", map[string]any{"seed": 1, "docs": docs(65)}, "per-request cap is 64"},
		{"65 ids", map[string]any{"seed": 1, "ids": ids(65)}, "per-request cap is 64"},
	} {
		out := postJSON(t, ts.URL+"/infer", c.body, http.StatusBadRequest)
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.msg) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.msg)
		}
	}
	<-s.inferSem
	if n := s.inferRequests.Load(); n != 0 {
		t.Fatalf("%d rejected requests reached fold-in", n)
	}
	// Exactly at the cap is accepted, in both forms.
	for _, body := range []map[string]any{{"seed": 1, "docs": docs(64)}, {"seed": 1, "ids": ids(64)}} {
		out := postJSON(t, ts.URL+"/infer", body, http.StatusOK)
		if theta, _ := out["theta"].([]any); len(theta) != 64 {
			t.Fatalf("64-document request answered %d thetas", len(theta))
		}
	}
	if n := s.inferRequests.Load(); n != 2 {
		t.Fatalf("inferRequests = %d after two accepted requests, want 2", n)
	}

	resp, err := http.Get(ts.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer status = %d", resp.StatusCode)
	}
}

// TestInferDeterministicAcrossServerParallelism is the serving half of the
// determinism contract: a P=1 server and a P=NumCPU+2 server must return
// byte-identical theta for the same (seed, docs) request.
func TestInferDeterministicAcrossServerParallelism(t *testing.T) {
	req := map[string]any{
		"seed": 42,
		"ids":  [][]int{{0, 1, 2}, {5, 6, 7, 8}, {0, 9}, {}, {3, 3, 3, 3}},
	}
	var bodies []string
	for _, p := range []int{1, runtime.GOMAXPROCS(0) + 2} {
		ts := newTestServer(t, Options{P: p})
		got := postJSON(t, ts.URL+"/infer", req, http.StatusOK)
		b, _ := json.Marshal(got["theta"])
		bodies = append(bodies, string(b))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("theta differs across server parallelism:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestConcurrentMixedQueries hammers every endpoint from many goroutines;
// run under -race this is the handlers' lock-free-reads proof.
func TestConcurrentMixedQueries(t *testing.T) {
	ts := newTestServer(t, Options{MaxInFlight: 2})
	urls := []string{
		ts.URL + "/healthz",
		ts.URL + "/topics",
		ts.URL + "/topics/0/top-words?n=5",
		ts.URL + "/hierarchy/node/o/1",
		ts.URL + "/search?q=query%20processing",
		ts.URL + "/search?q=databse",
		ts.URL + "/entity/query",
		ts.URL + "/entity/1",
	}
	inferBody, _ := json.Marshal(map[string]any{"seed": 3, "ids": [][]int{{0, 1, 2, 3}}, "sweeps": 5})
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%4 == 0 {
					resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(inferBody))
					if err != nil {
						errs <- err
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("infer status %d", resp.StatusCode)
					}
					resp.Body.Close()
					continue
				}
				u := urls[(g+i)%len(urls)]
				resp, err := http.Get(u)
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", u, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInferCancelledWhileQueued verifies the bounded in-flight gate
// releases waiters whose request context dies.
func TestInferCancelledWhileQueued(t *testing.T) {
	s, err := New(testSnapshot(t), Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot directly.
	s.inferSem <- struct{}{}
	defer func() { <-s.inferSem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(map[string]any{"seed": 1, "ids": [][]int{{0}}})
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued+cancelled infer status = %d, body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "inference slot") {
		t.Fatalf("unexpected body: %s", rec.Body.String())
	}
}

func TestMissingSections(t *testing.T) {
	s, err := New(&store.Snapshot{Vocab: []string{"a"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/topics", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/top-words", http.StatusNotFound)
	getJSON(t, ts.URL+"/hierarchy/node/o", http.StatusNotFound)
	getJSON(t, ts.URL+"/entity/0", http.StatusNotFound) // no advisor section: no author 0
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0}}}, http.StatusNotFound)

	if _, err := New(&store.Snapshot{}, Options{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestInferSamplerOptions pins the fold-in sampler plumbing: the default
// serves through exactly the core Sampler.ResolveFor picks for the
// snapshot, both cores are deterministic per (seed, docs) and agree on
// each document's dominant topic, and a name outside the three valid
// values — including the removed "sparse" — is rejected at startup rather
// than per request.
func TestInferSamplerOptions(t *testing.T) {
	body := map[string]any{"seed": 4, "ids": [][]int{{0, 1, 2, 0, 3}, {5, 6, 7, 8}}}
	thetaOf := func(opt Options) [][]any {
		ts := newTestServer(t, opt)
		out := postJSON(t, ts.URL+"/infer", body, http.StatusOK)
		rows := out["theta"].([]any)
		got := make([][]any, len(rows))
		for i, r := range rows {
			got[i] = r.([]any)
		}
		return got
	}
	nkv := testSnapshot(t).Topics.NKV
	resolved := lda.SamplerAuto.ResolveFor(len(nkv), len(nkv[0]))
	if auto, explicit := thetaOf(Options{}), thetaOf(Options{Sampler: resolved}); !reflect.DeepEqual(auto, explicit) {
		t.Fatalf("default sampler differs from the resolved %q core: %v vs %v", resolved, auto, explicit)
	}
	// Same conditional, different trajectories: both must put doc 0 on the
	// database topic and doc 1 on the learning topic.
	mh := thetaOf(Options{Sampler: lda.SamplerMH})
	dense := thetaOf(Options{Sampler: lda.SamplerDense})
	argmax := func(row []any) int {
		best := 0
		for i := range row {
			if row[i].(float64) > row[best].(float64) {
				best = i
			}
		}
		return best
	}
	for d := range dense {
		if argmax(mh[d]) != argmax(dense[d]) {
			t.Fatalf("cores disagree on doc %d's topic: mh %v dense %v", d, mh[d], dense[d])
		}
	}

	for _, name := range []lda.Sampler{"metropolis", "sparse"} {
		if _, err := New(testSnapshot(t), Options{Sampler: name}); err == nil {
			t.Fatalf("unknown sampler %q accepted at startup", name)
		}
	}
}

// TestCloseReleasesGoroutines is the goroutine leak check for the whole
// background machinery: the reload poller and the runtime-metrics
// collector must exit on an Options.Ctx cancel alone (Close additionally
// releases mappings).
func TestCloseReleasesGoroutines(t *testing.T) {
	checkStopReleasesGoroutines(t, "ctx-cancel")
}

// TestCloseStopsAdaptiveAndMetricsCollectors is the same leak check on the
// Close path: the runtime-metrics collector and the reload poller ride
// Server.Close, and no goroutine survives it. (The adaptive-window decay
// ticker this test once also covered no longer exists.)
func TestCloseStopsAdaptiveAndMetricsCollectors(t *testing.T) {
	checkStopReleasesGoroutines(t, "close")
}

// checkStopReleasesGoroutines drives inference, a forced reload and a
// scrape through a server with a live reload poller, stops it by stop
// ("ctx-cancel" or "close") and fails if the goroutine count does not
// return to its baseline.
func checkStopReleasesGoroutines(t *testing.T, stop string) {
	t.Helper()
	// Settle and measure the baseline.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(testSnapshot(t), Options{
		RouteTimeout: time.Second,
		SnapshotPath: path,
		ReloadPoll:   2 * time.Millisecond,
		Ctx:          ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the live machinery without any network goroutines.
	for i := 0; i < 3; i++ {
		if rec := s.serveOnce(t, http.MethodPost, "/infer", inferBody(t, int64(i), [][]int{{0, 1, 2}}, 3)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("admin reload: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := s.serveOnce(t, http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}

	if stop == "close" {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		cancel()
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after %s: %d > baseline %d\n%s",
			stop, n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
