package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lesm/internal/serve"
)

// clients is the number of client workers and connections: no more than
// the host's CPUs, as one process generates the load.
func clients() int { return runtime.NumCPU() }

// liveServer is the program under load: serve.Server behind a real
// loopback listener, in this process, with lesmd's flag defaults.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// lesmdDefaults are serve.Options at cmd/lesmd's flag defaults: no
// coalescing, 4 in-flight fold-in batches, a 64-deep admission queue,
// 30 sweeps, the auto sampler, heap decode, no poller, no timeout.
func lesmdDefaults(path string) serve.Options {
	return serve.Options{
		MaxInFlight: 4, Sweeps: 30, MaxBatchDocs: 64, MaxQueue: 64,
		SnapshotPath: path,
	}
}

// startServer loads the snapshot at path the way lesmd does and serves it
// on 127.0.0.1. It returns how long serve.New took.
func startServer(path string) (*liveServer, time.Duration, error) {
	snap, closer, err := serve.LoadSnapshot(path, false)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := serve.New(snap, lesmdDefaults(path))
	newDur := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	srv.AdoptCloser(closer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	n := clients()
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
				DisableCompression: true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, newDur, nil
}

// close drains the HTTP server, then releases the serving state, and
// waits for the serve goroutine to exit.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.client.CloseIdleConnections()
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// httpError is a non-2xx response.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the body of a 2xx response; any other
// status is an error. The body is always read to the end and closed, so
// the connection is reused.
func (ls *liveServer) do(method, path string, body []byte) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, &httpError{code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	return data, resp.Header, nil
}

// reload asks the server to re-read its snapshot path and checks that the
// generation advanced by exactly one.
func (ls *liveServer) reload(prevGen uint64) (uint64, error) {
	data, _, err := ls.do(http.MethodPost, "/admin/reload", nil)
	if err != nil {
		return 0, err
	}
	var r struct {
		Reloaded   bool   `json:"reloaded"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, err
	}
	if !r.Reloaded || r.Generation != prevGen+1 {
		return r.Generation, fmt.Errorf("reload: generation %d -> %d (reloaded=%v), want +1", prevGen, r.Generation, r.Reloaded)
	}
	return r.Generation, nil
}

// scrape reads /metrics and returns the shed count and the number of 5xx
// responses the server counted.
func (ls *liveServer) scrape() (shed, http5xx float64, err error) {
	data, _, err := ls.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(line[sp+1:], 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "lesmd_infer_shed_total"):
			shed += v
		case strings.HasPrefix(line, "lesmd_http_errors_total{") && strings.Contains(line, `code="5`):
			http5xx += v
		}
	}
	return shed, http5xx, sc.Err()
}

// generation reads the generation an ETag-bearing response answered from
// ("gen-N"), or 0 when absent.
func generation(h http.Header) uint64 {
	tag := strings.Trim(h.Get("ETag"), `"`)
	g, err := strconv.ParseUint(strings.TrimPrefix(tag, "gen-"), 10, 64)
	if err != nil {
		return 0
	}
	return g
}
