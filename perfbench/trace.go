package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdsampler/internal/hiddendb"
)

// spanHeader carries the span ID the timing RoundTripper gives each wire
// request, so the site's handler span joins the client's.
const spanHeader = "X-Perfbench-Span"

// clientSpan is one wire request as the daemon's http.Client saw it:
// round trip to the response headers, then reading the body.
type clientSpan struct {
	rtt, body time.Duration
	bytes     int64
	failed    bool
}

// siteSpan is one request as the site's handler saw it.
type siteSpan struct {
	endpoint string
	handler  time.Duration
	rawQuery string // GET search endpoints
	batch    []byte // POST /api/search/batch body
}

// tracer records spans at the boundaries the benchmark owns. Spans stay
// in memory and are reduced to metrics when the run ends.
type tracer struct {
	next     atomic.Uint64
	inFlight atomic.Int64
	maxInFl  atomic.Int64

	mu     sync.Mutex
	client map[uint64]*clientSpan
	site   map[uint64]*siteSpan
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.client = make(map[uint64]*clientSpan)
	t.site = make(map[uint64]*siteSpan)
	t.mu.Unlock()
	t.maxInFl.Store(0)
}

// roundTripper wraps the daemon's target transport: it tags each request
// with a span ID and times the round trip and the body read.
func (t *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		id := t.next.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		n := t.inFlight.Add(1)
		for {
			m := t.maxInFl.Load()
			if n <= m || t.maxInFl.CompareAndSwap(m, n) {
				break
			}
		}
		start := time.Now()
		resp, err := base.RoundTrip(req)
		sp := &clientSpan{rtt: time.Since(start)}
		if err != nil {
			t.inFlight.Add(-1)
			sp.failed = true
			t.record(id, sp, nil)
			return nil, err
		}
		resp.Body = &timedBody{rc: resp.Body, start: time.Now(), sp: sp, done: func() {
			t.inFlight.Add(-1)
			t.record(id, sp, nil)
		}}
		return resp, nil
	})
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody times a response body from the headers to EOF (or to Close,
// when the reader abandons it first).
type timedBody struct {
	rc    io.ReadCloser
	start time.Time
	sp    *clientSpan
	done  func()
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.sp.bytes += int64(n)
	if err == io.EOF {
		b.finish(false)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish(true)
	return b.rc.Close()
}

func (b *timedBody) finish(early bool) {
	b.once.Do(func() {
		b.sp.body = time.Since(b.start)
		b.sp.failed = early
		b.done()
	})
}

// siteHandler wraps the site: it times each request's handler and keeps
// the query it carried, for the Execute replay.
func (t *tracer) siteHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := &siteSpan{endpoint: endpointOf(r), rawQuery: r.URL.RawQuery}
		if sp.endpoint == "api_batch" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			sp.batch = body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		sp.handler = time.Since(start)
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t.record(id, nil, sp)
	})
}

func (t *tracer) record(id uint64, c *clientSpan, s *siteSpan) {
	t.mu.Lock()
	if c != nil {
		t.client[id] = c
	}
	if s != nil {
		t.site[id] = s
	}
	t.mu.Unlock()
}

// endpointOf names a site request the way webform's metrics do.
func endpointOf(r *http.Request) string {
	switch r.URL.Path {
	case "/search":
		return "search"
	case "/api/search":
		return "api_search"
	case "/api/search/batch":
		return "api_batch"
	}
	return "other"
}

// queryEndpoints are the site endpoints that run hiddendb queries.
var queryEndpoints = []string{"search", "api_search", "api_batch"}

// replayStats is hiddendb.DB.Execute timed on the queries the site
// served during the phase.
type replayStats struct {
	queries int
	total   time.Duration
	errors  int
}

func (r replayStats) meanUS() float64 {
	if r.queries == 0 {
		return 0
	}
	return float64(r.total) / 1e3 / float64(r.queries)
}

// replay re-executes every query the site served on db, timing Execute
// alone. It runs after the timed phase.
func (t *tracer) replay(db *hiddendb.DB) replayStats {
	schema := db.Schema()
	var qs []hiddendb.Query
	var rs replayStats
	t.mu.Lock()
	for _, sp := range t.site {
		switch sp.endpoint {
		case "search", "api_search":
			vals, err := url.ParseQuery(sp.rawQuery)
			if err != nil {
				rs.errors++
				continue
			}
			q := hiddendb.EmptyQuery()
			for name, v := range vals {
				a := schema.AttrIndex(name)
				if a < 0 || len(v) == 0 || v[0] == "" {
					continue
				}
				idx, err := strconv.Atoi(v[0])
				if err != nil {
					rs.errors++
					continue
				}
				q = q.With(a, idx)
			}
			qs = append(qs, q)
		case "api_batch":
			var req struct {
				Queries []map[string]int `json:"queries"`
			}
			if err := json.Unmarshal(sp.batch, &req); err != nil {
				rs.errors++
				continue
			}
			for _, preds := range req.Queries {
				q := hiddendb.EmptyQuery()
				for name, idx := range preds {
					q = q.With(schema.AttrIndex(name), idx)
				}
				qs = append(qs, q)
			}
		}
	}
	t.mu.Unlock()
	for _, q := range qs {
		start := time.Now()
		_, err := db.Execute(q)
		rs.total += time.Since(start)
		if err != nil {
			rs.errors++
		}
	}
	rs.queries = len(qs)
	return rs
}

// metrics reduces the spans to the formclient, webform and wire
// metrics, and hiddendb's share of handler time.
func (t *tracer) metrics(p *phase, acc, jobs float64) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rtt, body, kb, network []float64
	abandoned := 0
	for id, c := range t.client {
		if c.failed {
			abandoned++
		}
		rtt = append(rtt, float64(c.rtt)/1e3)
		body = append(body, float64(c.body)/1e3)
		kb = append(kb, float64(c.bytes)/1e3)
		// The network's share of a wire call: the client's whole
		// exchange (round trip and body) minus the site's handler time.
		if s, ok := t.site[id]; ok {
			network = append(network, float64(c.rtt+c.body-s.handler)/1e3)
		}
	}
	handler := map[string][]float64{}
	var handlerTotal time.Duration
	requests := 0
	for _, s := range t.site {
		handler[s.endpoint] = append(handler[s.endpoint], float64(s.handler)/1e3)
		if s.endpoint != "other" {
			handlerTotal += s.handler
			requests++
		}
	}
	out := map[string]metric{
		"formclient.rtt_us.p50":       {quantile(rtt, 0.5), "us"},
		"formclient.body_us.p50":      {quantile(body, 0.5), "us"},
		"formclient.response_kb.mean": {mean(kb), "kB"},
		"formclient.aborted_per_job":  {float64(p.aborted) / jobs, "count"},
		// Responses the client closed before reading them to the end, or
		// whose round trip failed: the client's side of aborted, which
		// also counts the HTML pages webform does not log.
		"formclient.abandoned_per_job": {float64(abandoned) / jobs, "count"},
		"webform.requests_per_sample":  {float64(requests) / acc, "count"},
		"wire.network_us.p50":          {quantile(network, 0.5), "us"},
		"wire.serial_share":            {t.serialShare(p.jobs), "ratio"},
		"wire.max_inflight":            {float64(t.maxInFl.Load()), "count"},
		"hiddendb.execute_share":       {float64(p.replay.total) / float64(max(handlerTotal, 1)), "ratio"},
	}
	for _, ep := range queryEndpoints {
		out["webform.handler_us.p50."+ep] = metric{quantile(handler[ep], 0.5), "us"}
		out["webform.handler_us.mean."+ep] = metric{mean(handler[ep]), "us"}
	}
	return out
}

// serialShare is the client's wire time (round trip plus body, summed
// over every wire call) as a share of the jobs' summed run time. When
// the wire calls are serial, the rest of the run time is the daemon's
// own work between them: decoding pages and walking. The caller holds
// t.mu.
func (t *tracer) serialShare(jobs []*jobRecord) float64 {
	var wire, run time.Duration
	for _, c := range t.client {
		wire += c.rtt + c.body
	}
	for _, r := range jobs {
		if v := r.view; v.Started != nil && v.Finished != nil {
			run += v.Finished.Sub(*v.Started)
		}
	}
	if run <= 0 {
		return 0
	}
	return float64(wire) / float64(run)
}

// reconcile checks, on a workload whose wire calls are serial (one
// client, one worker), that the client's wire time accounts for the
// traced run time within the stated margin.
func reconcile(w workload, p *phase) error {
	if w.clients != 1 || w.spec.Workers != 1 {
		return nil
	}
	p.tr.mu.Lock()
	share := p.tr.serialShare(p.jobs)
	p.tr.mu.Unlock()
	if share > serialCeil || share < serialFloor {
		return fmt.Errorf("reconcile: wire time is %.3f of the traced run time, want within [%.2f, %.2f]", share, serialFloor, serialCeil)
	}
	return nil
}

// The reconciliation margin on serial workloads: the wire calls must
// account for at least serialFloor of the jobs' run time (the rest is
// the daemon decoding pages and walking), and cannot exceed it by more
// than timer slack plus the one draw-ahead request a job abandons when
// it ends.
const (
	serialFloor = 0.5
	serialCeil  = 1.05
)
