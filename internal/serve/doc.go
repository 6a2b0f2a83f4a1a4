// Package serve is the read side of the framework: an HTTP/JSON query
// server over model snapshots (internal/store). It answers structure
// lookups (topic top-words, hierarchy nodes) and entity lookups (/search
// and /entity/:name over the generation's internal/search index, the one
// table of words, phrases and authors; an author profile carries its
// advisor ranking) from immutable in-memory state — lookup queries capped
// at 256 bytes, 8 tokens and a limit of 100 — and runs fold-in Gibbs
// inference (internal/lda.FoldIn) for unseen documents on the shared
// parallel runtime.
//
// Concurrency model: everything the handlers read hangs off one immutable
// artifact value behind an atomic pointer. Handlers load the pointer once
// per request and run lock-free; a snapshot hot reload (mtime polling of
// the snapshot path, or POST /admin/reload) builds and validates the next
// artifact off to the side and swaps the pointer, so a refit goes live
// with zero downtime while in-flight requests finish on the artifact they
// started with. Every /infer response names the artifact generation it was
// answered from; identical requests against one generation are
// bit-identical.
//
// /infer runs behind a bounded in-flight semaphore, and every request is
// exactly one lda.FoldIn batch, capped at Options.MaxBatchDocs documents
// (larger requests get 400 right after body decode). Each document samples
// from its request's (seed, index, sweep) PRNG streams, so a response
// depends only on its own request and the artifact generation. Snapshots
// can be served straight from a read-only memory mapping (Options.MMap /
// store.OpenMapped); replaced generations' mappings are retired until
// Close so a request racing a reload never touches unmapped memory.
//
// Traffic envelope and observability: admission control bounds /infer at
// MaxInFlight running plus MaxQueue waiting — excess requests are shed
// before body decode with 503 + Retry-After. Options.RouteTimeout
// deadlines every route, reaching queued and mid-sampling work (fold-in
// aborts between par chunks). GET /metrics renders Prometheus text
// format 0.0.4 with no client library (metrics.go); structure routes
// carry a strong "gen-N" ETag and honor If-None-Match, revalidating across
// hot-reload generation bumps. All of it is locked in under -race by the
// saturation, ETag, timeout and scrape-lint suites in this package's
// tests.
//
// cmd/lesmd wraps this package as a standalone daemon.
package serve
