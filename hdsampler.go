package hdsampler

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/telemetry"
)

// Re-exported types so callers need only this package for common use.
type (
	// Schema describes a hidden database's searchable attributes.
	Schema = hiddendb.Schema
	// Attribute is one searchable field.
	Attribute = hiddendb.Attribute
	// Tuple is one sampled row.
	Tuple = hiddendb.Tuple
	// Query is a conjunction of equality predicates.
	Query = hiddendb.Query
	// Predicate is one equality constraint.
	Predicate = hiddendb.Predicate
	// Result is a query answer: top-k rows, overflow flag, optional count.
	Result = hiddendb.Result
	// Conn is the restricted interface connector samplers draw through.
	Conn = formclient.Conn
	// Sample is one accepted sample with provenance.
	Sample = core.Sample
	// Pipeline streams samples incrementally with a kill switch.
	Pipeline = core.Pipeline
	// Estimate is a point estimate with a standard error.
	Estimate = estimate.Estimate
	// Marginal is a sampled attribute histogram.
	Marginal = estimate.Marginal
	// ExecStats counts the query-execution layer's coalescing and
	// batching work.
	ExecStats = queryexec.Stats
)

// Method selects the sampling algorithm.
type Method int

const (
	// MethodRandomWalk is HIDDEN-DB-SAMPLER: the random drill-down with
	// early termination and acceptance/rejection (the system's default).
	MethodRandomWalk Method = iota
	// MethodBruteForce probes uniformly random fully-specified queries —
	// provably uniform, prohibitively slow; the validation baseline.
	MethodBruteForce
	// MethodCountWeighted drills down weighting branches by reported
	// counts (requires a count-reporting interface).
	MethodCountWeighted
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRandomWalk:
		return "random-walk"
	case MethodBruteForce:
		return "brute-force"
	case MethodCountWeighted:
		return "count-weighted"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ExecConfig tunes the query-execution layer (internal/queryexec):
// single-flight coalescing of identical in-flight queries, batch requests
// for query sets, and AIMD-adaptive concurrency limiting shared by every
// replica on the connector. Config.Exec states when the layer is part of
// the stack.
type ExecConfig struct {
	// MaxBatch bounds the queries of a set — a count-weighted level's
	// siblings, a crawl node's children — packed into one batch request
	// (POST /api/search/batch, one rate-limit charge for the whole batch;
	// default 16) when the layer is in the stack. Effective only on
	// batch-capable connectors (DialAPI, LocalConn); HTML scraping asks a
	// set one query at a time.
	MaxBatch int
	// MaxInFlight caps concurrent wire requests across all replicas: the
	// AIMD ceiling, additively raised on clean responses and
	// multiplicatively cut on 429 pushback. 0 disables concurrency
	// limiting.
	MaxInFlight int
	// RatePerSec caps the replicas' aggregate wire request rate — unlike
	// formclient's per-goroutine Politeness delay, which N replicas each
	// apply independently (so a site sees N× the configured rate), this
	// bounds the sum. 0 disables.
	RatePerSec float64
	// Burst is the rate cap's token bucket capacity (default 10).
	Burst int
	// TransientRetries bounds the execution layer's retries of wire
	// executions failing with transient interface faults (5xx blips,
	// timeouts) before the error reaches the sampler. Default 2; negative
	// disables retrying.
	TransientRetries int
}

// limited reports whether any knob is set that requires routing even a
// lone sampler through the execution layer: admission control, or an
// explicit transient-retry budget (retries live in the layer, so a
// sampler configured to survive blips must be wired through it).
func (e ExecConfig) limited() bool {
	return e.MaxInFlight > 0 || e.RatePerSec > 0 || e.TransientRetries > 0
}

// Config tunes a Sampler.
type Config struct {
	// Method selects the algorithm; default MethodRandomWalk.
	Method Method
	// Seed drives all randomness; runs with equal seeds and connectors
	// are reproducible.
	Seed int64
	// Slider is the demo's efficiency↔skew knob in [0,1]: 0 = lowest skew
	// (most rejections), 1 = fastest (accept everything). The zero-value
	// Config defaults to 1 (fastest); set SliderSet to make an explicit
	// Slider: 0 mean what the documentation says.
	Slider float64
	// SliderSet marks Slider as explicitly configured. Without it a
	// Slider of 0 — the zero value — keeps the "fastest" default; with
	// it, Slider: 0 selects the documented lowest-skew walk.
	SliderSet bool
	// C, when positive, sets the rejection target reach probability
	// directly, overriding Slider.
	C float64
	// K is the interface's top-k limit, used only to map Slider onto C;
	// defaults to 1000 (Google Base's limit) when unknown.
	K int
	// Attrs restricts sampling to an attribute subset (schema indexes).
	Attrs []int
	// ShuffleOrder reshuffles the walk's attribute order per walk.
	ShuffleOrder bool
	// UseHistory interposes the query-history cache (memoization and
	// inference) between the sampler and the connector.
	UseHistory bool
	// TrustCounts enables count-based history inference; enable only when
	// the interface reports exact counts.
	TrustCounts bool
	// UseParentCount enables the count-weighted walker's sibling
	// inference; meaningful only with MethodCountWeighted + exact counts.
	UseParentCount bool
	// AdaptiveQuantile, when in (0,1], replaces the fixed C with an
	// adaptive rejector: a warmup phase observes candidate reaches and
	// freezes C at this quantile, so no knowledge of the reach
	// distribution is needed. Overrides Slider and C.
	AdaptiveQuantile float64
	// AdaptiveWarmup is the calibration candidate count (default 100).
	AdaptiveWarmup int
	// Exec tunes the query-execution layer. One rule, derived from the
	// number of replicas drawing, places it: with more than one replica
	// (ReplicaSet, DrawParallel) the layer is always in the stack; a lone
	// replica (New, or DrawParallel with fewer samples than workers) has
	// nothing to coalesce, so it gets the layer only for an admission
	// knob (MaxInFlight, RatePerSec, TransientRetries). Either way a
	// batch-capable connector answers query sets in batch requests.
	Exec ExecConfig
	// Obs observes candidate draws: walk-duration histogram, sampled walk
	// tracing, and the slow-walk log. The observer's instruments are
	// concurrency-safe, so ReplicaSet shares one observer across all
	// replicas. Nil disables observation (the zero-overhead default).
	Obs *telemetry.WalkObserver
}

// Stats summarizes a Draw call.
type Stats struct {
	// Candidates, Accepted, Rejected describe the rejection step.
	Candidates int64
	Accepted   int64
	Rejected   int64
	// Queries is the number of interface queries the generator issued;
	// QueriesSaved the number answered by the history cache instead.
	Queries      int64
	QueriesSaved int64
	// QueriesCoalesced counts queries answered by joining an identical
	// in-flight query, QueriesBatched those shipped inside shared batch
	// wire requests — the execution layer's savings (zero without it).
	QueriesCoalesced int64
	QueriesBatched   int64
	// QueriesRetried counts wire executions the execution layer repeated
	// after transient interface faults — misbehaviour absorbed before it
	// could kill a walk (zero without the layer).
	QueriesRetried int64
	Elapsed        time.Duration
}

// Stack is an assembled connector stack: the connector samplers draw
// through, plus handles on the layers in it that report savings. New,
// NewReplicaSet and DrawParallel assemble one from a Config; a service
// that shares layers across many draws (the jobsvc daemon keeps one
// executor and one history cache per target host) assembles its own and
// passes it to NewReplicaSetOn.
type Stack struct {
	// Conn is the top of the stack, the connector generators query.
	Conn Conn
	// Cache is the history cache in the stack, nil without one.
	Cache *history.Cache
	// Exec is the execution layer in the stack, nil without one.
	Exec *queryexec.Executor
}

// newStack assembles the stack cfg describes for the given number of
// replicas (see Config.Exec for the rule). The execution layer sits
// below the cache: cache misses are the queries worth coalescing,
// batching and rate-bounding.
func newStack(conn Conn, cfg Config, replicas int) Stack {
	st := Stack{Conn: conn}
	limited := cfg.Exec.limited()
	if replicas > 1 || limited {
		opts := queryexec.Options{
			MaxBatch:         cfg.Exec.MaxBatch,
			TransientRetries: cfg.Exec.TransientRetries,
		}
		if limited {
			opts.Limiter = queryexec.NewLimiter(queryexec.LimiterOptions{
				MaxInFlight: cfg.Exec.MaxInFlight,
				RatePerSec:  cfg.Exec.RatePerSec,
				Burst:       cfg.Exec.Burst,
			})
		}
		st.Exec = queryexec.New(conn, opts)
		st.Conn = st.Exec
	}
	if cfg.UseHistory {
		st.Cache = history.New(st.Conn, history.Options{TrustCounts: cfg.TrustCounts})
		st.Conn = st.Cache
	}
	return st
}

// savings snapshots the stack's cumulative cache and execution-layer
// savings as Stats counters.
func (st Stack) savings() Stats {
	var s Stats
	if st.Cache != nil {
		s.QueriesSaved = st.Cache.CacheStats().Saved()
	}
	if st.Exec != nil {
		xs := st.Exec.ExecStats()
		s.QueriesCoalesced, s.QueriesBatched, s.QueriesRetried = xs.Coalesced, xs.Batched, xs.TransientRetries
	}
	return s
}

// drawStats totals a draw's replica tallies and counts the stack's
// savings since at0, the savings snapshot taken at the draw's start: the
// cache and executor may be shared with other draws, so their totals are
// not this draw's.
func (st Stack) drawStats(tallies []core.Tally, elapsed time.Duration, at0 Stats) Stats {
	s := st.savings()
	s.QueriesSaved -= at0.QueriesSaved
	s.QueriesCoalesced -= at0.QueriesCoalesced
	s.QueriesBatched -= at0.QueriesBatched
	s.QueriesRetried -= at0.QueriesRetried
	s.Elapsed = elapsed
	for i := range tallies {
		t := &tallies[i]
		s.Candidates += t.Candidates.Load()
		s.Accepted += t.Accepted.Load()
		s.Rejected += t.Rejected.Load()
		s.Queries += t.Queries.Load()
	}
	return s
}

// Sampler is the assembled system: connector stack, generator, and
// rejection processor.
type Sampler struct {
	stack  Stack
	gen    core.Generator
	rej    core.Acceptor
	schema *Schema
}

// New assembles a sampler over the connector.
func New(ctx context.Context, conn Conn, cfg Config) (*Sampler, error) {
	return newSampler(ctx, newStack(conn, cfg, 1), cfg)
}

// newSampler builds the generator and rejection processor cfg describes
// over an assembled stack; cfg's stack knobs are not consulted. It is
// the one sampler constructor: New builds one, a ReplicaSet one per
// replica.
func newSampler(ctx context.Context, st Stack, cfg Config) (*Sampler, error) {
	schema, err := st.Conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	s := &Sampler{stack: st, schema: schema}
	order := core.OrderFixed
	if cfg.ShuffleOrder {
		order = core.OrderShuffle
	}
	switch cfg.Method {
	case MethodRandomWalk:
		s.gen, err = core.NewWalker(ctx, st.Conn, core.WalkerConfig{
			Seed: cfg.Seed, Order: order, Attrs: cfg.Attrs, Obs: cfg.Obs,
		})
	case MethodBruteForce:
		s.gen, err = core.NewBruteForce(ctx, st.Conn, core.BruteForceConfig{
			Seed: cfg.Seed, Attrs: cfg.Attrs,
		})
	case MethodCountWeighted:
		s.gen, err = core.NewCountWalker(ctx, st.Conn, core.CountWalkerConfig{
			Seed: cfg.Seed, Order: order, Attrs: cfg.Attrs,
			UseParentCount: cfg.UseParentCount, Obs: cfg.Obs,
		})
	default:
		return nil, fmt.Errorf("hdsampler: unknown method %v", cfg.Method)
	}
	if err != nil {
		return nil, err
	}
	// Brute force is already uniform: no rejection. Otherwise use the
	// adaptive rejector when requested, else derive C from the explicit
	// value or the slider.
	if cfg.Method != MethodBruteForce {
		if cfg.AdaptiveQuantile > 0 {
			s.rej = core.NewAdaptiveRejector(cfg.AdaptiveQuantile, cfg.AdaptiveWarmup, cfg.Seed+1)
			return s, nil
		}
		c := cfg.C
		if c <= 0 {
			k := cfg.K
			if k <= 0 {
				k = 1000
			}
			slider := cfg.Slider
			if slider == 0 && !cfg.SliderSet {
				// Zero-value Config means "fastest": the raw walk. An
				// explicit Slider: 0 (SliderSet) keeps the documented
				// lowest-skew meaning instead.
				slider = 1
			}
			c = core.SliderC(schema, cfg.Attrs, k, slider)
		}
		if c < 1 {
			s.rej = core.NewRejector(c, cfg.Seed+1)
		}
	}
	return s, nil
}

// Schema returns the target database's discovered schema.
func (s *Sampler) Schema() *Schema { return s.schema }

// C returns the effective rejection target: 1 when accepting everything,
// 0 while an adaptive rejector is still calibrating.
func (s *Sampler) C() float64 {
	switch r := s.rej.(type) {
	case *core.Rejector:
		return r.C
	case *core.AdaptiveRejector:
		return r.C()
	}
	return 1
}

// Draw synchronously collects n accepted samples. Stats are per-call
// deltas: the cache and execution-layer counts (QueriesSaved,
// QueriesCoalesced, QueriesBatched, QueriesRetried) are windowed over this
// call like every other counter, so consecutive Draws never double-report
// them.
func (s *Sampler) Draw(ctx context.Context, n int) ([]Tuple, Stats, error) {
	out := make([]Tuple, 0, max(n, 0))
	st, err := s.draw(ctx, n, s.rej, func(c *core.Candidate) error {
		out = append(out, c.Tuple)
		return nil
	})
	return out, st, err
}

// draw runs the core.Draw loop for n accepted samples on the calling
// goroutine, handing each to emit, and reports the call's stats.
func (s *Sampler) draw(ctx context.Context, n int, rej core.Acceptor, emit func(*core.Candidate) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, nil
	}
	start, at0 := time.Now(), s.stack.savings()
	var t [1]core.Tally
	err := core.Draw(ctx, s.gen, rej, n, &t[0], emit)
	return s.stack.drawStats(t[:], time.Since(start), at0), err
}

// NewPipeline returns an incremental pipeline targeting n samples (0 = run
// until the kill switch); read samples from Pipeline.Start.
func (s *Sampler) NewPipeline(n int) *Pipeline {
	return core.NewPipeline(s.gen, s.rej, core.PipelineConfig{Target: n})
}

// ExecStats returns the execution layer's counters; ok is false when the
// sampler runs without the layer.
func (s *Sampler) ExecStats() (ExecStats, bool) {
	if s.stack.Exec == nil {
		return ExecStats{}, false
	}
	return s.stack.Exec.ExecStats(), true
}

// HistoryStats returns (saved, issued) query counts when UseHistory is on.
func (s *Sampler) HistoryStats() (saved, issued int64) {
	if s.stack.Cache == nil {
		return 0, 0
	}
	cs := s.stack.Cache.CacheStats()
	return cs.Saved(), cs.Issued
}

// Dial returns a connector that scrapes the HTML form interface rooted at
// baseURL — the way HDSampler drove Google Base.
func Dial(baseURL string) Conn {
	return formclient.NewHTTP(baseURL, formclient.HTTPOptions{})
}

// DialWithClient is Dial with a custom *http.Client (timeouts, proxies,
// test servers).
func DialWithClient(baseURL string, client *http.Client) Conn {
	return formclient.NewHTTP(baseURL, formclient.HTTPOptions{Client: client})
}

// DialAPI returns a connector using the site's machine-readable API
// endpoints instead of HTML scraping.
func DialAPI(baseURL string) Conn {
	return formclient.NewAPI(baseURL, formclient.HTTPOptions{})
}

// LocalConn wraps an in-process hidden database as a connector (the demo's
// "locally simulated hidden database" mode).
func LocalConn(db *hiddendb.DB) Conn {
	return formclient.NewLocal(db)
}

// Marginals computes per-attribute histograms of a sample set.
func Marginals(schema *Schema, samples []Tuple) []Marginal {
	return estimate.Marginals(schema, samples)
}

// CountEstimate estimates COUNT(*) WHERE pred given the population size.
func CountEstimate(samples []Tuple, pred Query, population int) Estimate {
	return estimate.Count(samples, pred, population)
}

// SumEstimate estimates SUM(attr) WHERE pred given the population size.
func SumEstimate(samples []Tuple, pred Query, attr, population int) Estimate {
	return estimate.Sum(samples, pred, attr, population)
}

// AvgEstimate estimates AVG(attr) WHERE pred.
func AvgEstimate(samples []Tuple, pred Query, attr int) Estimate {
	return estimate.Avg(samples, pred, attr)
}

// ProportionEstimate estimates the fraction of rows matching pred.
func ProportionEstimate(samples []Tuple, pred Query) Estimate {
	return estimate.Proportion(samples, pred)
}
