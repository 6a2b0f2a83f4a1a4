package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// structureRoutes are the immutable-content routes that carry the
// generation ETag and honor If-None-Match.
var structureRoutes = []string{
	"/topics",
	"/topics/0/top-words?n=3",
	"/hierarchy/node/o/1",
	"/search?q=query",
	"/entity/1",
}

// condProbe GETs url with an optional If-None-Match and returns the
// status, the response ETag, and the body length.
func condProbe(t testing.TB, url, inm string) (status int, etag string, bodyLen int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), len(body)
}

// TestConditionalGETServesAndRevalidates pins the ETag contract on every
// structure route: the tag is the snapshot generation, If-None-Match
// revalidation returns a body-free 304, and non-matching or absent
// validators return full 200s.
func TestConditionalGETServesAndRevalidates(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, route := range structureRoutes {
		url := ts.URL + route
		status, etag, n := condProbe(t, url, "")
		if status != http.StatusOK || etag != `"gen-1"` {
			t.Fatalf("%s: status %d etag %q, want 200 %q", route, status, etag, `"gen-1"`)
		}
		if n == 0 {
			t.Fatalf("%s: empty 200 body", route)
		}
		// Matching validator: 304 with the tag and no body.
		status, etag, n = condProbe(t, url, `"gen-1"`)
		if status != http.StatusNotModified || n != 0 {
			t.Fatalf("%s If-None-Match match: status %d bodyLen %d, want 304 empty", route, status, n)
		}
		if etag != `"gen-1"` {
			t.Fatalf("%s 304 etag = %q", route, etag)
		}
		// Stale validator: full response.
		if status, _, n = condProbe(t, url, `"gen-0"`); status != http.StatusOK || n == 0 {
			t.Fatalf("%s stale validator: status %d bodyLen %d", route, status, n)
		}
		// Wildcard and weak-compare both revalidate; so does a list with
		// the tag buried in it.
		for _, inm := range []string{"*", `W/"gen-1"`, `"other", "gen-1"`} {
			if status, _, _ = condProbe(t, url, inm); status != http.StatusNotModified {
				t.Fatalf("%s If-None-Match %q: status %d, want 304", route, inm, status)
			}
		}
	}
}

// TestConditionalGETAcrossReload: a hot reload bumps the generation, so
// cached gen-1 responses revalidate to full 200s carrying the new tag,
// and the new tag then 304s.
func TestConditionalGETAcrossReload(t *testing.T) {
	ts, s := newTestServerPair(t, Options{})
	for _, route := range structureRoutes {
		if status, _, _ := condProbe(t, ts.URL+route, `"gen-1"`); status != http.StatusNotModified {
			t.Fatalf("%s pre-reload: status %d, want 304", route, status)
		}
	}
	if err := s.Reload(altSnapshot(t), nil); err != nil {
		t.Fatal(err)
	}
	for _, route := range structureRoutes {
		url := ts.URL + route
		status, etag, n := condProbe(t, url, `"gen-1"`)
		if status != http.StatusOK || etag != `"gen-2"` || n == 0 {
			t.Fatalf("%s post-reload with stale tag: status %d etag %q bodyLen %d, want fresh 200 %q",
				route, status, etag, n, `"gen-2"`)
		}
		if status, _, _ = condProbe(t, url, `"gen-2"`); status != http.StatusNotModified {
			t.Fatalf("%s post-reload current tag: status %d, want 304", route, status)
		}
	}
}

// TestNoETagOnErrorsOrDynamicRoutes: error responses and the dynamic
// routes must not carry an entity tag — a cached 404 or a revalidated
// /healthz would be actively wrong.
func TestNoETagOnErrorsOrDynamicRoutes(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/topics/9/top-words", http.StatusNotFound},
		{"/hierarchy/node/o/9", http.StatusNotFound},
		{"/entity/qqqqzzzz", http.StatusNotFound},
		{"/search", http.StatusBadRequest},           // missing q
		{"/phrases/search?q=x", http.StatusNotFound}, // deleted route
		{"/advisor/1", http.StatusNotFound},          // deleted route
		{"/healthz", http.StatusOK},
		{"/metrics", http.StatusOK},
	} {
		status, etag, _ := condProbe(t, ts.URL+tc.url, "")
		if status != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.url, status, tc.want)
		}
		if etag != "" {
			t.Fatalf("%s: unexpected ETag %q", tc.url, etag)
		}
	}
	// A 404 with a (stale-format) validator stays a 404 — the conditional
	// check must run only after the request resolves to servable content.
	if status, _, _ := condProbe(t, ts.URL+"/entity/qqqqzzzz", `"gen-1"`); status != http.StatusNotFound {
		t.Fatalf("validated 404 became %d", status)
	}
	// POST /infer is dynamic per-request content: no ETag.
	resp2, err := http.Post(ts.URL+"/infer", "application/json",
		bytes.NewReader(inferBody(t, 1, [][]int{{0, 1}}, 3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("infer: status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("ETag") != "" {
		t.Fatalf("infer response carries an ETag %q", resp2.Header.Get("ETag"))
	}
	resp, err := http.Get(ts.URL + "/topics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("ETag") == "" {
		t.Fatal("structure route lost its ETag after mixed traffic")
	}
}
