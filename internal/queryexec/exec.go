package queryexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// Options tunes an Executor.
type Options struct {
	// MaxBatch bounds the queries packed into one batch request (default
	// 16); ExecuteBatch sends a larger set as several.
	MaxBatch int
	// Limiter is the shared per-host admission controller; nil runs
	// unlimited.
	Limiter *Limiter
	// TransientRetries bounds how many times a wire execution that failed
	// with formclient.ErrTransient (a 5xx blip, a timed-out request, an
	// injected fault) is retried before the error propagates — without it,
	// one blip kills the leader's walk AND every follower coalesced onto
	// the same flight. Default 2; negative disables retrying.
	TransientRetries int
	// Sleep paces transient-retry backoff, overridable by tests; defaults
	// to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Wire, when set, observes every wire round trip (single-query and
	// batch requests alike); ExecLatency, when set, observes every logical
	// query through the layer, including coalescing waits (each member of
	// a set is observed with the whole set's latency).
	// Wire calls are rare and slow relative to a clock read, so these stay
	// on for all traffic; leave nil to skip the timing entirely.
	Wire        *telemetry.Histogram
	ExecLatency *telemetry.Histogram
}

// Stats counts the execution layer's work.
type Stats struct {
	// Queries is the number of logical queries answered.
	Queries int64
	// Coalesced counts queries answered by joining an identical in-flight
	// query instead of issuing their own wire request.
	Coalesced int64
	// Batched counts queries shipped inside a multi-query batch request;
	// BatchRequests counts those wire requests.
	Batched       int64
	BatchRequests int64
	// WireCalls counts wire executions: single-query requests plus batch
	// requests (each batch is one).
	WireCalls int64
	// TransientRetries counts wire executions repeated after a transient
	// interface fault (formclient.ErrTransient).
	TransientRetries int64
}

// Executor is a formclient.Conn decorator implementing the execution
// layer. It is safe for concurrent use; in a typical stack it sits
// directly above the raw connector, below the shared history cache:
//
//	sampler → history.Cache → queryexec.Executor → formclient.{API,HTTP}
//
// A query set (ExecuteBatch) goes out straight away on the caller's
// goroutine, as batch requests when the connector is a
// formclient.Batcher; nothing waits for other callers' queries.
type Executor struct {
	inner formclient.Conn
	batch formclient.Batcher // nil: sets go out one query at a time
	opts  Options

	mu    sync.Mutex
	calls map[uint64]*call // keyed by query signature hash; chained on collision

	lastRetries atomic.Int64

	queries    atomic.Int64
	coalesced  atomic.Int64
	batched    atomic.Int64
	batchReqs  atomic.Int64
	wire       atomic.Int64
	transients atomic.Int64
}

// call is one in-flight single-flight execution. Calls live in a map
// keyed by the query's precomputed 64-bit signature hash; the full
// canonical key resolves the (vanishingly rare) signature collision via
// the next chain, so distinct queries never share a flight.
type call struct {
	key  string // canonical query key, verified on every hash-slot probe
	next *call  // signature-collision chain within a map slot

	done chan struct{}
	res  *hiddendb.Result
	err  error
}

// errAbandoned publishes the flights of a set whose earlier batch failed:
// it wraps context.Canceled, so followers with live contexts re-lead
// their queries instead of inheriting another query's failure.
var errAbandoned = fmt.Errorf("queryexec: query set abandoned: %w", context.Canceled)

// findCall walks a hash slot's collision chain for the call matching the
// full canonical key. The caller holds the executor's mutex. The chain
// discipline mirrors history's shard.get/put/detach (internal/history/
// shard.go) — a change to either unlink path likely applies to both;
// each has its own collision-chain test pinning the surgery.
func findCall(calls map[uint64]*call, hash uint64, key string) *call {
	for c := calls[hash]; c != nil; c = c.next {
		if c.key == key {
			return c
		}
	}
	return nil
}

// removeCall unlinks c from its hash slot's chain. The caller holds the
// executor's mutex.
func removeCall(calls map[uint64]*call, hash uint64, c *call) {
	head := calls[hash]
	if head == c {
		if c.next == nil {
			delete(calls, hash)
		} else {
			calls[hash] = c.next
		}
		c.next = nil
		return
	}
	for cur := head; cur != nil; cur = cur.next {
		if cur.next == c {
			cur.next = c.next
			c.next = nil
			return
		}
	}
}

// New wraps inner with the execution layer. Query sets go out as batch
// requests when inner is a formclient.Batcher.
func New(inner formclient.Conn, opts Options) *Executor {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 16
	}
	if opts.TransientRetries == 0 {
		opts.TransientRetries = 2
	} else if opts.TransientRetries < 0 {
		opts.TransientRetries = 0
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	x := &Executor{inner: inner, opts: opts, calls: make(map[uint64]*call)}
	x.batch, _ = inner.(formclient.Batcher)
	// Snapshot the connector's retry counter: pre-existing 429 history on
	// a reused connector is not congestion this executor caused.
	x.lastRetries.Store(inner.Stats().RateLimitRetries)
	return x
}

// Schema implements formclient.Conn.
func (x *Executor) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return x.inner.Schema(ctx)
}

// Stats implements formclient.Conn: like the history cache, the executor
// reports the wrapped connector's real traffic so samplers keep observing
// true query costs. The layer's own effect is in ExecStats.
func (x *Executor) Stats() formclient.Stats { return x.inner.Stats() }

// ExecStats returns the layer's coalescing/batching counters.
func (x *Executor) ExecStats() Stats {
	return Stats{
		Queries:          x.queries.Load(),
		Coalesced:        x.coalesced.Load(),
		Batched:          x.batched.Load(),
		BatchRequests:    x.batchReqs.Load(),
		WireCalls:        x.wire.Load(),
		TransientRetries: x.transients.Load(),
	}
}

// Limiter returns the shared admission controller (nil when unlimited).
func (x *Executor) Limiter() *Limiter { return x.opts.Limiter }

// Execute implements formclient.Conn with single-flight semantics: the
// first caller of a canonical query becomes its leader and executes;
// callers arriving while it is in flight wait and share the answer.
// Flights are keyed by the query's precomputed signature hash (full-key
// verified), and followers share the leader's Result outright — Results
// are immutable by convention, so fan-out costs no deep copies.
//
//hdlint:hotpath
func (x *Executor) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	x.queries.Add(1)
	tr := telemetry.TraceFrom(ctx)
	if x.opts.ExecLatency == nil {
		return x.execute(ctx, q, tr)
	}
	start := time.Now()
	res, err := x.execute(ctx, q, tr)
	x.opts.ExecLatency.Observe(time.Since(start))
	return res, err
}

// execute is Execute's single-flight body; tr is the caller's walk trace
// (nil when untraced).
//
//hdlint:hotpath
func (x *Executor) execute(ctx context.Context, q hiddendb.Query, tr *telemetry.WalkTrace) (*hiddendb.Result, error) {
	hash, key := q.Hash(), q.Key()
	for {
		x.mu.Lock()
		if c := findCall(x.calls, hash, key); c != nil {
			x.mu.Unlock()
			res, retry, err := x.follow(ctx, c, tr)
			if retry {
				continue
			}
			return res, err
		}
		//hdlint:ignore hotpath the leader's flight record: one allocation per distinct in-flight query, amortized across every coalesced follower
		c := &call{key: key, done: make(chan struct{})}
		c.next = x.calls[hash]
		x.calls[hash] = c
		x.mu.Unlock()

		c.res, c.err = x.execDirect(ctx, q, tr)
		x.publish(hash, c)
		if c.err != nil {
			return nil, c.err
		}
		return c.res, nil
	}
}

// follow waits for an identical in-flight query and shares its answer.
// retry reports that the leader was cancelled by its own caller while
// ours is live: the follower must not be poisoned, and re-leads instead.
func (x *Executor) follow(ctx context.Context, c *call, tr *telemetry.WalkTrace) (res *hiddendb.Result, retry bool, err error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if c.err != nil {
		if ctx.Err() == nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
			return nil, true, nil
		}
		return nil, false, c.err
	}
	x.coalesced.Add(1)
	if tr != nil {
		tr.MarkExec(telemetry.ExecCoalesced)
	}
	return c.res, false, nil
}

// publish ends a leader's flight: c.res and c.err are set, and followers
// may read them once done closes.
func (x *Executor) publish(hash uint64, c *call) {
	x.mu.Lock()
	removeCall(x.calls, hash, c)
	x.mu.Unlock()
	close(c.done)
}

// ExecuteBatch implements formclient.Batcher. Members with an identical
// query in flight join it; the rest become single-flight leaders and go
// out at once on the caller's goroutine — as batch requests of at most
// MaxBatch queries when the connector can batch, one query at a time
// otherwise. The first failure ends the set.
func (x *Executor) ExecuteBatch(ctx context.Context, qs []hiddendb.Query) ([]*hiddendb.Result, error) {
	x.queries.Add(int64(len(qs)))
	tr := telemetry.TraceFrom(ctx)
	if x.opts.ExecLatency == nil {
		return x.executeBatch(ctx, qs, tr)
	}
	start := time.Now()
	out, err := x.executeBatch(ctx, qs, tr)
	d := time.Since(start)
	for range qs {
		x.opts.ExecLatency.Observe(d)
	}
	return out, err
}

// executeBatch is ExecuteBatch's body; tr's open set (if any) has one
// member per query.
func (x *Executor) executeBatch(ctx context.Context, qs []hiddendb.Query, tr *telemetry.WalkTrace) ([]*hiddendb.Result, error) {
	calls := make([]*call, len(qs))
	var lead, follow []int
	x.mu.Lock()
	for i, q := range qs {
		hash, key := q.Hash(), q.Key()
		if c := findCall(x.calls, hash, key); c != nil {
			calls[i] = c
			follow = append(follow, i)
			continue
		}
		c := &call{key: key, done: make(chan struct{})}
		c.next = x.calls[hash]
		x.calls[hash] = c
		calls[i] = c
		lead = append(lead, i)
	}
	x.mu.Unlock()

	// Lead first, follow after: a member following a flight this same set
	// leads only waits once that flight is published. After a failed
	// chunk the remaining flights are published abandoned, unsent.
	size := x.opts.MaxBatch
	if x.batch == nil {
		size = 1
	}
	out := make([]*hiddendb.Result, len(qs))
	var err error
	for start := 0; start < len(lead); start += size {
		chunk := lead[start:min(start+size, len(lead))]
		sent := err == nil
		if sent {
			x.run(ctx, qs, chunk, calls, tr)
		}
		for _, i := range chunk {
			c := calls[i]
			if !sent {
				c.err = errAbandoned
			} else if c.err != nil && err == nil {
				err = c.err
			}
			out[i] = c.res
			x.publish(qs[i].Hash(), c)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, i := range follow {
		tr.Focus(i)
		res, retry, ferr := x.follow(ctx, calls[i], tr)
		if retry {
			res, ferr = x.execute(ctx, qs[i], tr)
		}
		if ferr != nil {
			return nil, ferr
		}
		out[i] = res
	}
	return out, nil
}

// run sends one chunk of leader members (indexes into qs and calls) and
// stores each member's answer in its call: a lone query goes out as a
// plain request; two or more share one batch wire request and one
// rate-limit charge. A transient fault is retried for the whole batch;
// a batch that still fails falls back to unbatched execution — one
// query's problem (a server-side budget, a validation error) must not
// abort its batchmates.
func (x *Executor) run(ctx context.Context, qs []hiddendb.Query, chunk []int, calls []*call, tr *telemetry.WalkTrace) {
	if len(chunk) == 1 {
		i := chunk[0]
		tr.Focus(i)
		calls[i].res, calls[i].err = x.execDirect(ctx, qs[i], tr)
		return
	}
	batch := make([]hiddendb.Query, len(chunk))
	for j, i := range chunk {
		batch[j] = qs[i]
	}
	var results []*hiddendb.Result
	var err error
	for attempt := 0; ; attempt++ {
		if err = x.opts.Limiter.Acquire(ctx); err != nil {
			break
		}
		if tr != nil {
			limit := x.opts.Limiter.Limit()
			for _, i := range chunk {
				tr.Focus(i)
				tr.SetAIMDLimit(limit)
			}
		}
		var start time.Time
		if x.opts.Wire != nil {
			start = time.Now()
		}
		results, err = x.batch.ExecuteBatch(ctx, batch)
		if x.opts.Wire != nil {
			x.opts.Wire.Observe(time.Since(start))
		}
		x.wire.Add(1)
		x.batchReqs.Add(1)
		x.opts.Limiter.Release(x.clean(err))
		if err == nil && len(results) != len(batch) {
			err = fmt.Errorf("queryexec: batch answered %d of %d queries", len(results), len(batch))
		}
		if !x.retryable(ctx, err, attempt) {
			break
		}
		x.transients.Add(1)
		for _, i := range chunk {
			tr.Focus(i)
			tr.AddRetry()
		}
		if serr := x.opts.Sleep(ctx, transientBackoff(attempt)); serr != nil {
			err = serr
			break
		}
	}
	for j, i := range chunk {
		tr.Focus(i)
		if err != nil {
			calls[i].res, calls[i].err = x.execDirect(ctx, qs[i], tr)
			continue
		}
		calls[i].res = results[j]
		tr.MarkExec(telemetry.ExecBatched)
	}
	if err == nil {
		x.batched.Add(int64(len(chunk)))
	}
}

// execDirect issues one single-query wire request under the limiter,
// retrying transient interface faults within the configured budget. The
// admission slot is held only for the wire call itself — a backoff sleep
// must not starve other queries of the window.
func (x *Executor) execDirect(ctx context.Context, q hiddendb.Query, tr *telemetry.WalkTrace) (*hiddendb.Result, error) {
	for attempt := 0; ; attempt++ {
		if err := x.opts.Limiter.Acquire(ctx); err != nil {
			return nil, err
		}
		if tr != nil {
			// Traced walks record the AIMD window as seen at send time; the
			// Limit read takes the limiter mutex, so it stays off the
			// untraced path.
			tr.MarkExec(telemetry.ExecWire)
			tr.SetAIMDLimit(x.opts.Limiter.Limit())
		}
		var start time.Time
		if x.opts.Wire != nil {
			start = time.Now()
		}
		res, err := x.inner.Execute(ctx, q)
		if x.opts.Wire != nil {
			x.opts.Wire.Observe(time.Since(start))
		}
		x.wire.Add(1)
		x.opts.Limiter.Release(x.clean(err))
		if !x.retryable(ctx, err, attempt) {
			return res, err
		}
		x.transients.Add(1)
		if tr != nil {
			tr.AddRetry()
		}
		if serr := x.opts.Sleep(ctx, transientBackoff(attempt)); serr != nil {
			return nil, serr
		}
	}
}

// retryable reports whether a failed wire execution should be repeated:
// only transient faults, only within the budget, and never once the
// caller's context is gone.
func (x *Executor) retryable(ctx context.Context, err error, attempt int) bool {
	return err != nil && attempt < x.opts.TransientRetries &&
		errors.Is(err, formclient.ErrTransient) && ctx.Err() == nil
}

// transientBackoff spaces retry attempts: short, because blips are short.
func transientBackoff(attempt int) time.Duration {
	d := 2 * time.Millisecond << attempt
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// clean reports whether a wire interaction ran free of rate-limit
// pushback; it feeds the AIMD controller. The connector retries 429s
// internally, so pushback is visible as a retry-counter advance (or, past
// the retry budget, as ErrRateLimited).
func (x *Executor) clean(err error) bool {
	retries := x.inner.Stats().RateLimitRetries
	prev := x.lastRetries.Swap(retries)
	if err != nil && errors.Is(err, formclient.ErrRateLimited) {
		return false
	}
	return retries <= prev
}

var (
	_ formclient.Conn    = (*Executor)(nil)
	_ formclient.Batcher = (*Executor)(nil)
)
