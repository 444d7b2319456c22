package hdsampler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
)

// ReplicaSet is the replica machinery behind DrawParallel, exposed as a
// reusable object for long-running callers (the jobsvc daemon) that need
// live progress and partial results while a draw is underway: `workers`
// independent sampler replicas over one connector stack, each with a
// derived seed, drawing concurrently.
//
// When the stack carries a history cache the replicas share it, so any
// worker's answers save every other worker's queries; a service that
// passes its own stack to NewReplicaSetOn shares one cache per target
// host across many concurrent ReplicaSets. The cache is sharded
// internally, so replicas read it without serializing on a global lock.
//
// Each replica owns its generator and its acceptance/rejection processor
// (seeded per replica) and runs the core.Draw loop on its own goroutine
// up to its share of the target, so no replica shares mutable sampler
// state with another and none draws past its share. The combined sample
// is a fair mixture of independent samplers and keeps the per-replica
// statistical guarantees.
type ReplicaSet struct {
	stack    Stack
	samplers []*Sampler
	tallies  []core.Tally
	// at0 snapshots the stack's savings at construction, the start of
	// the window Progress counts them over.
	at0 Stats

	mu        sync.Mutex
	started   bool
	startTime time.Time
	elapsed   time.Duration
	samples   []Sample
}

// NewReplicaSet builds `workers` sampler replicas over conn, with the
// connector stack cfg describes for that many replicas (see Config.Exec).
// Replica i samples with seed cfg.Seed + i·7919, so runs with equal
// configurations are reproducible.
func NewReplicaSet(ctx context.Context, conn Conn, cfg Config, workers int) (*ReplicaSet, error) {
	return NewReplicaSetOn(ctx, newStack(conn, cfg, workers), cfg, workers)
}

// NewReplicaSetOn builds `workers` sampler replicas over an assembled
// stack, seeded like NewReplicaSet. cfg's stack knobs (UseHistory,
// TrustCounts, Exec) are not consulted: the stack is the caller's.
func NewReplicaSetOn(ctx context.Context, st Stack, cfg Config, workers int) (*ReplicaSet, error) {
	if workers < 1 {
		return nil, fmt.Errorf("hdsampler: workers = %d, need >= 1", workers)
	}
	rs := &ReplicaSet{
		stack:    st,
		samplers: make([]*Sampler, workers),
		tallies:  make([]core.Tally, workers),
		at0:      st.savings(),
	}
	for i := range rs.samplers {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(i)*7919 // distinct streams per worker
		s, err := newSampler(ctx, st, wcfg)
		if err != nil {
			return nil, err
		}
		rs.samplers[i] = s
	}
	return rs, nil
}

// Workers returns the replica count.
func (rs *ReplicaSet) Workers() int { return len(rs.samplers) }

// Cache returns the history cache the replicas share, or nil when the
// stack has none.
func (rs *ReplicaSet) Cache() *history.Cache { return rs.stack.Cache }

// ExecStats returns the stack's execution-layer counters (the layer's
// totals, not windowed to this set); ok is false when the stack has no
// execution layer.
func (rs *ReplicaSet) ExecStats() (ExecStats, bool) {
	if rs.stack.Exec == nil {
		return ExecStats{}, false
	}
	return rs.stack.Exec.ExecStats(), true
}

// Schema returns the target database's discovered schema.
func (rs *ReplicaSet) Schema() *Schema { return rs.samplers[0].Schema() }

// C returns the effective rejection target of the replicas (they share
// one configuration, so replica 0 speaks for all).
func (rs *ReplicaSet) C() float64 { return rs.samplers[0].C() }

// Draw collects n accepted samples across the replicas. It may be called
// once per ReplicaSet. On error or cancellation it returns the samples
// accepted so far along with the stats; Samples() keeps the full
// provenance (reach, per-draw query cost) of the same tuples.
func (rs *ReplicaSet) Draw(ctx context.Context, n int) ([]Tuple, Stats, error) {
	rs.mu.Lock()
	if rs.started {
		rs.mu.Unlock()
		return nil, Stats{}, fmt.Errorf("hdsampler: ReplicaSet.Draw called twice")
	}
	rs.started = true
	rs.startTime = time.Now()
	rs.mu.Unlock()

	// Split the target across replicas; replicas with a zero quota stay
	// idle.
	quota := make([]int, len(rs.samplers))
	for i := 0; i < n; i++ {
		quota[i%len(quota)]++
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var firstErr error
	for i, s := range rs.samplers {
		if quota[i] == 0 {
			continue
		}
		wg.Add(1)
		go func(s *Sampler, t *core.Tally, quota int) {
			defer wg.Done()
			err := core.Draw(ctx, s.gen, s.rej, quota, t, func(c *core.Candidate) error {
				rs.mu.Lock()
				rs.samples = append(rs.samples, Sample{Tuple: c.Tuple, Reach: c.Reach, Queries: c.Queries})
				rs.mu.Unlock()
				return nil
			})
			// A replica's own failure ends the set; the cancellation it
			// triggers is not another failure.
			rs.mu.Lock()
			if err != nil && firstErr == nil && ctx.Err() == nil {
				firstErr = err
				cancel()
			}
			rs.mu.Unlock()
		}(s, &rs.tallies[i], quota[i])
	}
	wg.Wait()

	rs.mu.Lock()
	rs.elapsed = time.Since(rs.startTime)
	tuples := make([]Tuple, len(rs.samples))
	for i := range rs.samples {
		tuples[i] = rs.samples[i].Tuple
	}
	rs.mu.Unlock()

	st := rs.Progress()
	if firstErr == nil && len(tuples) < n {
		// Replicas stopped short without their own error: the caller's
		// context was cancelled.
		firstErr = ctx.Err()
	}
	return tuples, st, firstErr
}

// Progress returns a live statistics snapshot; safe to call from any
// goroutine while Draw runs, and after it returns. Cache and
// execution-layer savings count from the set's construction, so a stack
// shared with other sets reports only this set's window.
func (rs *ReplicaSet) Progress() Stats {
	rs.mu.Lock()
	accepted := int64(len(rs.samples))
	elapsed := rs.elapsed
	if elapsed == 0 && !rs.startTime.IsZero() {
		elapsed = time.Since(rs.startTime)
	}
	rs.mu.Unlock()

	st := rs.stack.drawStats(rs.tallies, elapsed, rs.at0)
	st.Accepted = accepted // the samples Samples returns, one source
	return st
}

// Samples returns a snapshot of the accepted samples with provenance
// (reach probabilities and per-draw query costs) — the inputs a persisted
// store.SampleSet wants.
func (rs *ReplicaSet) Samples() []Sample {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Sample, len(rs.samples))
	copy(out, rs.samples)
	return out
}

// DrawParallel collects n accepted samples using `workers` independent
// sampler replicas over the same connector (each with a derived seed), the
// natural way to exploit a site that tolerates concurrent clients. When
// cfg.UseHistory is set the replicas share one history cache, so any
// worker's answers save every other worker's queries. It is a one-shot
// convenience over NewReplicaSet.
func DrawParallel(ctx context.Context, conn Conn, cfg Config, n, workers int) ([]Tuple, Stats, error) {
	if n < workers && workers > 1 {
		// More replicas than samples would leave idle workers; a single
		// replica is equivalent, and its stack follows from that count.
		workers = 1
	}
	rs, err := NewReplicaSet(ctx, conn, cfg, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	return rs.Draw(ctx, n)
}

// Crawl exhaustively extracts every reachable tuple through the interface —
// the expensive alternative the paper's introduction argues against; use
// it to price a full crawl against a sample. maxQueries of 0 means
// unlimited.
func Crawl(ctx context.Context, conn Conn, maxQueries int64) ([]Tuple, int64, error) {
	c, err := core.NewCrawler(ctx, conn, core.CrawlerConfig{MaxQueries: maxQueries})
	if err != nil {
		return nil, 0, err
	}
	tuples, err := c.Run(ctx)
	return tuples, c.Queries(), err
}

// PopulationEstimate estimates the hidden database's size. It prefers the
// interface's root count (one query) and otherwise falls back to the
// birthday/collision estimator over the provided samples; ok is false when
// neither source can produce an estimate yet.
func PopulationEstimate(ctx context.Context, conn Conn, samples []Tuple) (Estimate, bool) {
	if res, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err == nil && res.Count != hiddendb.CountAbsent {
		return Estimate{Value: float64(res.Count), N: len(samples)}, true
	}
	est, ok := estimate.PopulationBirthday(samples)
	return est, ok
}
