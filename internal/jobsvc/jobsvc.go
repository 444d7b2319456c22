// Package jobsvc is the sampling job-orchestration service behind
// cmd/hdsamplerd: the subsystem that turns the one-shot sampler library
// into the long-running system the original demo was — an operator points
// it at a live form interface and watches samples and estimates
// accumulate.
//
// A Manager accepts jobs (target URL, sampling method, sample count,
// slider, worker count, query budget), runs each on its own replica pool
// via hdsampler.ReplicaSet, and exposes live progress while the job runs.
// Jobs hitting the same target share one query-history cache per host, so
// one job's answers save every other job's queries, and a per-host
// politeness budget keeps concurrent jobs from hammering one site.
// Completed (and cancelled/failed-partial) sample sets are checkpointed
// to disk through internal/store. NewHandler exposes the whole thing as a
// REST API.
package jobsvc

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Connector kinds and sampling methods accepted in a Spec.
const (
	ConnectorHTML = "html"
	ConnectorAPI  = "api"

	MethodUniform  = "uniform"
	MethodWeighted = "weighted"
	MethodCrawl    = "crawl"
)

// Spec describes one sampling job as submitted by a client.
type Spec struct {
	// URL roots the target web form interface, e.g. "http://host:8080".
	URL string `json:"url"`
	// Connector drives the target via HTML scraping ("html", default) or
	// the machine-readable API ("api").
	Connector string `json:"connector,omitempty"`
	// Method selects the algorithm: "uniform" (random drill-down,
	// default), "weighted" (count-weighted drill-down, needs a
	// count-reporting interface) or "crawl" (full extraction baseline).
	Method string `json:"method,omitempty"`
	// N is the number of samples to accept; ignored for crawl jobs.
	N int `json:"n"`
	// Workers is the sampler replica count (default 1).
	Workers int `json:"workers,omitempty"`
	// Slider is the efficiency↔skew knob in [0,1] (see hdsampler.Config):
	// omitted/null keeps the fastest default (1), and an explicit 0 —
	// representable because the field is a pointer — selects the
	// documented lowest-skew walk. C, when positive, sets the rejection
	// target directly.
	Slider *float64 `json:"slider,omitempty"`
	C      float64  `json:"c,omitempty"`
	// K is the interface's top-k limit for the slider mapping.
	K int `json:"k,omitempty"`
	// Seed drives all randomness; equal specs replay identically.
	Seed int64 `json:"seed,omitempty"`
	// MaxQueries bounds the interface queries the job may issue (for
	// crawl jobs: the crawler's query budget). When the budget is spent
	// the job fails but keeps the samples accepted so far. 0 = unlimited.
	MaxQueries int64 `json:"max_queries,omitempty"`
	// TrustCounts enables count-based history inference and, for
	// weighted jobs, parent-count reuse.
	TrustCounts bool `json:"trust_counts,omitempty"`
	// NoHistory opts the job out of the shared per-host history cache.
	NoHistory bool `json:"no_history,omitempty"`
	// NoShuffle disables per-walk attribute order reshuffling.
	NoShuffle bool `json:"no_shuffle,omitempty"`
}

// normalize fills defaults and validates the spec in place, returning the
// parsed target URL.
func (s *Spec) normalize() (*url.URL, error) {
	if s.Connector == "" {
		s.Connector = ConnectorHTML
	}
	if s.Method == "" {
		s.Method = MethodUniform
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	switch s.Connector {
	case ConnectorHTML, ConnectorAPI:
	default:
		return nil, fmt.Errorf("jobsvc: unknown connector %q (want html or api)", s.Connector)
	}
	switch s.Method {
	case MethodUniform, MethodWeighted:
		if s.N <= 0 {
			return nil, fmt.Errorf("jobsvc: n = %d, need > 0", s.N)
		}
	case MethodCrawl:
	default:
		return nil, fmt.Errorf("jobsvc: unknown method %q (want uniform, weighted or crawl)", s.Method)
	}
	if s.Slider != nil && (*s.Slider < 0 || *s.Slider > 1) {
		return nil, fmt.Errorf("jobsvc: slider = %g, need [0,1]", *s.Slider)
	}
	if s.URL == "" {
		return nil, errors.New("jobsvc: missing target url")
	}
	u, err := url.Parse(s.URL)
	if err != nil {
		return nil, fmt.Errorf("jobsvc: bad url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("jobsvc: url %q: need an absolute http(s) URL", s.URL)
	}
	s.URL = strings.TrimRight(u.String(), "/")
	return u, nil
}

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a run slot.
	StateQueued State = "queued"
	// StateRunning: the worker pool is drawing.
	StateRunning State = "running"
	// StateCompleted: finished cleanly with the requested samples.
	StateCompleted State = "completed"
	// StateFailed: stopped on an error (budget, connector, interface);
	// partial samples, if any, are preserved.
	StateFailed State = "failed"
	// StateCanceled: stopped by DELETE /jobs/{id} or daemon shutdown.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// View is a point-in-time snapshot of a job, the REST API's job resource.
type View struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Live progress: accepted samples, candidates drawn, rejections, the
	// interface query bill and what the shared history cache saved.
	// QueriesSaved is the cache's savings over the job's run window (its
	// replica set's lifetime, plus any resumed base), so jobs overlapping
	// on one host each see the window's total; the
	// exact global figure is the host cache counter on /metrics.
	Accepted       int64   `json:"accepted"`
	Candidates     int64   `json:"candidates"`
	Rejected       int64   `json:"rejected"`
	Queries        int64   `json:"queries"`
	QueriesSaved   int64   `json:"queries_saved"`
	AcceptanceRate float64 `json:"acceptance_rate"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	Error string `json:"error,omitempty"`
	// Checkpoint is the on-disk sample set path once persisted.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Epoch is the job's journal lease epoch: 0 before the first run, 1
	// for a normal run, higher after each crash-recovery resume. Always 0
	// when the daemon runs without a journal.
	Epoch int64 `json:"epoch,omitempty"`
}

// Errors the Manager returns; the HTTP layer maps them to status codes.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobsvc: no such job")
	// ErrNoSamples reports that a job has no sample set (yet).
	ErrNoSamples = errors.New("jobsvc: job has no samples")
	// ErrShuttingDown rejects submissions during shutdown.
	ErrShuttingDown = errors.New("jobsvc: manager is shutting down")
	// ErrBudgetExhausted stops a job that spent its query budget.
	ErrBudgetExhausted = errors.New("jobsvc: job query budget exhausted")
)
