// Serving: the full fit → Save → lesmd → HTTP query loop in one process.
//
// The example fits a hierarchy, topical phrases and a Gibbs topic model on
// the quickstart corpus, persists everything as a model snapshot, loads
// the snapshot into the serving layer (the same code path cmd/lesmd
// runs), and queries it over real HTTP: top words, hierarchy nodes,
// entity search, and deterministic fold-in inference for unseen titles.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"lesm"
	"lesm/internal/serve"
	"lesm/internal/store"
	"lesm/internal/synth"
)

func main() {
	par := flag.Int("p", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Parse()

	// --- Fit (the batch side) ---
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: 2000, Seed: 42})
	corpus := ds.Corpus
	h, err := lesm.BuildTextHierarchy(corpus, lesm.HierarchyOptions{K: 3, Levels: 2, Seed: 7, Parallelism: *par})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := lesm.AttachPhrases(corpus, nil, h, lesm.PhraseOptions{TopN: 6, Parallelism: *par}); err != nil {
		log.Fatal(err)
	}
	topics, err := lesm.InferTopicsGibbs(corpus, 4, 11, lesm.RunOptions{Parallelism: *par})
	if err != nil {
		log.Fatal(err)
	}

	// --- Save (the snapshot store) ---
	dir, err := os.MkdirTemp("", "lesm-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.lesm")
	if err := lesm.Save(path, &lesm.Artifact{
		Hierarchy:   h,
		Topics:      topics,
		Vocab:       corpus.Vocab,
		Corpus:      lesm.NewCorpusMeta(corpus),
		RolePhrases: lesm.RolePhrasesOf(h),
	}); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("snapshot: %s (%d KiB)\n", path, info.Size()/1024)

	// --- Serve (what `lesmd -snapshot model.lesm` does) ---
	snap, err := store.Read(path)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(snap, serve.Options{P: *par})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("lesmd serving on %s\n\n", base)

	// --- Query over HTTP ---
	show := func(label, url string) {
		resp, err := http.Get(url)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("%s\n  GET %s\n  %s\n", label, url[len(base):], bytes.TrimSpace(body))
	}
	show("health:", base+"/healthz")
	show("topic 0 top words:", base+"/topics/0/top-words?n=5")
	show("hierarchy node o/1:", base+"/hierarchy/node/o/1")
	show("search (words, phrases, authors):", base+"/search?q=mining&limit=3")

	// Fold-in inference: encode two unseen titles and POST them twice —
	// identical (seed, doc) must give identical distributions.
	req, _ := json.Marshal(map[string]any{
		"seed": 7,
		"docs": [][]string{
			{"database", "query", "optimization"},
			{"neural", "network", "training"},
		},
	})
	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Post(base+"/infer", "application/json", bytes.NewReader(req))
		if err != nil {
			log.Fatal(err)
		}
		bodies[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	fmt.Printf("fold-in inference:\n  POST /infer\n  %s\n", bytes.TrimSpace(bodies[0]))
	if !bytes.Equal(bodies[0], bodies[1]) {
		log.Fatal("determinism violated: identical requests gave different theta")
	}
	fmt.Println("  repeated request byte-identical: deterministic ✓")
}
