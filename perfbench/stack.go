package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/jobsvc"
	"hdsampler/internal/webform"
)

// stack is one set-up: the site and the daemon on loopback TCP, and the
// REST client that drives the daemon.
type stack struct {
	db      *hiddendb.DB
	siteURL string
	apiURL  string
	mgr     *jobsvc.Manager
	rest    *restClient
	tr      *tracer // nil on an untraced run
	dir     string

	// aborted counts the site's "superfluous WriteHeader" log lines:
	// responses the client abandoned while webform was still writing.
	aborted atomic.Int64

	site, api    *http.Server
	serving      int           // serve loops started
	serveDone    chan struct{} // one send per serve loop that returned
	daemonClient *http.Client
}

// newStack builds the dataset, starts both servers, checks /readyz and
// runs the workload's warm-up jobs.
func newStack(w workload, seed int64, dir string, traced bool, warmJobs int) (*stack, error) {
	ds := datagen.Vehicles(w.rows, seed)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, ds.Ranker, hiddendb.Config{K: w.k, CountMode: w.counts})
	if err != nil {
		return nil, fmt.Errorf("build site db: %w", err)
	}
	s := &stack{db: db, dir: dir, serveDone: make(chan struct{}, 2)}
	if traced {
		s.tr = newTracer()
	}

	var site http.Handler = webform.NewServer(db, webform.Options{})
	if s.tr != nil {
		site = s.tr.siteHandler(site)
	}
	s.site = &http.Server{Handler: site, ErrorLog: log.New(abortCounter{&s.aborted}, "", 0)}
	siteURL, err := s.serve(s.site)
	if err != nil {
		return nil, err
	}
	s.siteURL = siteURL

	// The daemon's target client matches formclient's default (the
	// default transport settings, a 30s timeout); a traced run wraps the
	// transport in the timing RoundTripper and nothing else.
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if s.tr != nil {
		rt = s.tr.roundTripper(rt)
	}
	s.daemonClient = &http.Client{Transport: rt, Timeout: 30 * time.Second}

	cfg := jobsvc.Config{
		// cmd/hdsamplerd's flag defaults.
		MaxConcurrent:   4,
		HostBurst:       10,
		BatchMax:        16,
		CheckpointEvery: 2 * time.Second,
		TraceSampleRate: 0.01,
		TraceCapacity:   128,
		// Workload settings.
		BatchLinger:     w.linger,
		CacheMaxEntries: w.cacheEntries,
		Client:          s.daemonClient,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if traced {
		cfg.TraceSampleRate = 1
	}
	if w.durable {
		cfg.JournalDir = filepath.Join(dir, "journal")
		cfg.DataDir = filepath.Join(dir, "data")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.close()
		return nil, err
	}
	s.mgr = jobsvc.NewManager(cfg)
	s.api = &http.Server{Handler: jobsvc.NewHandler(s.mgr), ErrorLog: log.New(os.Stderr, "perfbench: daemon: ", 0)}
	if s.apiURL, err = s.serve(s.api); err != nil {
		s.close()
		return nil, err
	}

	// One shared transport for every load-generating goroutine.
	rest := http.DefaultTransport.(*http.Transport).Clone()
	rest.MaxIdleConnsPerHost = 8
	s.rest = &restClient{base: s.apiURL, hc: &http.Client{Transport: rest, Timeout: 60 * time.Second}}

	if err := s.rest.ready(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(w, warmJobs); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve starts srv on a fresh loopback port and returns its base URL.
func (s *stack) serve(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.serving++
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		s.serveDone <- struct{}{}
	}()
	return "http://" + ln.Addr().String(), nil
}

// warmUp runs the workload's fixed warm-up jobs one after another with
// fixed seeds, so every run starts its timer from the same cache state.
func (s *stack) warmUp(w workload, jobs int) error {
	for i := 0; i < jobs; i++ {
		spec := w.spec
		spec.URL = s.siteURL
		spec.Workers = 1
		spec.Seed = int64(1000 + i)
		id, _, err := s.rest.submit(spec)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		v, err := s.rest.wait(id)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if v.State != jobsvc.StateCompleted {
			return fmt.Errorf("warm-up job %s ended %s: %s", id, v.State, v.Error)
		}
	}
	return nil
}

// close stops the servers and the manager, waits for both serve loops
// and removes the run's files.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.api != nil {
		_ = s.api.Shutdown(ctx)
	}
	if s.mgr != nil {
		if err := s.mgr.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: manager shutdown:", err)
		}
	}
	_ = s.site.Shutdown(ctx)
	for ; s.serving > 0; s.serving-- {
		<-s.serveDone
	}
	if s.rest != nil {
		s.rest.hc.CloseIdleConnections()
	}
	s.daemonClient.CloseIdleConnections()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove run dir:", err)
	}
}

// abortCounter is a site ErrorLog sink: it counts the lines net/http
// logs when a handler writes a header after its response failed, which
// happens when the client abandons a response mid-write. Any other line
// goes to standard error.
type abortCounter struct{ n *atomic.Int64 }

func (a abortCounter) Write(p []byte) (int, error) {
	for _, line := range bytes.Split(bytes.TrimRight(p, "\n"), []byte("\n")) {
		if bytes.Contains(line, []byte("superfluous response.WriteHeader")) {
			a.n.Add(1)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: site: %s\n", line)
		}
	}
	return len(p), nil
}

// restClient drives the daemon's REST API.
type restClient struct {
	base string
	hc   *http.Client
}

// do makes one request and returns the drained body; a status other
// than want is an error.
func (c *restClient) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (c *restClient) ready() error {
	raw, err := c.do(http.MethodGet, "/readyz", nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	var h jobsvc.Health
	if err := json.Unmarshal(raw, &h); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	if h.Status != "ok" || h.Draining {
		return fmt.Errorf("readyz: daemon not ready: %s", raw)
	}
	return nil
}

// submit posts a job and returns its ID and the submit's wall time.
func (c *restClient) submit(spec jobsvc.Spec) (string, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	raw, err := c.do(http.MethodPost, "/jobs", body, http.StatusCreated)
	took := time.Since(start)
	if err != nil {
		return "", took, err
	}
	var v jobsvc.View
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", took, fmt.Errorf("POST /jobs: %w", err)
	}
	return v.ID, took, nil
}

func (c *restClient) job(id string) (jobsvc.View, error) {
	var v jobsvc.View
	raw, err := c.do(http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
	if err != nil {
		return v, err
	}
	err = json.Unmarshal(raw, &v)
	return v, err
}

// pollEvery is how often a waiting client asks after its job.
const pollEvery = 2 * time.Millisecond

// wait polls a job until it is terminal.
func (c *restClient) wait(id string) (jobsvc.View, error) {
	for {
		v, err := c.job(id)
		if err != nil || v.State.Terminal() {
			return v, err
		}
		time.Sleep(pollEvery)
	}
}

func (c *restClient) samples(id string) ([]byte, error) {
	return c.do(http.MethodGet, "/jobs/"+id+"/samples", nil, http.StatusOK)
}

func (c *restClient) metrics() (string, error) {
	raw, err := c.do(http.MethodGet, "/metrics", nil, http.StatusOK)
	return string(raw), err
}
