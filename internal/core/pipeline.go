package core

import (
	"context"
	"sync/atomic"
	"time"

	"hdsampler/internal/hiddendb"
)

// Sample is one accepted sample with its provenance.
type Sample struct {
	Tuple hiddendb.Tuple
	// Reach is the candidate's reach probability (before rejection).
	Reach float64
	// Queries is the number of interface queries the producing draw cost.
	Queries int
}

// Progress is a point-in-time snapshot of a running pipeline, the numbers
// the demo's front end displays while sampling is underway.
type Progress struct {
	Candidates int64
	Accepted   int64
	Rejected   int64
	// Queries is the interface query bill of every candidate the pipeline
	// has decided on (accepted or rejected), summed from each candidate's
	// own draw cost, plus the cost of a draw that failed. The loop never
	// starts a walk past the target, so a completed run's figure equals
	// the generator's own query count.
	Queries int64
	Elapsed time.Duration
	// Done reports that the pipeline has stopped (target reached, error,
	// or kill switch).
	Done bool
	// Err is the terminal error, if any (nil on clean completion).
	Err error
}

// Tally counts one draw loop's work. The counters are atomic so live
// progress displays can read them while the loop runs.
type Tally struct {
	Candidates, Accepted, Rejected, Queries atomic.Int64
}

// Draw is the sampling loop every driver runs — Collect, Pipeline, and
// the root package's samplers and replica sets: draw a candidate from
// gen, decide on it with rej (nil accepts everything), hand an accepted
// one to emit, and stop as soon as n candidates are accepted (n < 0
// never stops on count). It also stops on context cancellation, on a
// generator error, and when emit fails, returning that error. The loop
// runs on the caller's goroutine and starts no walk it will not use,
// so the generator's query count never runs past the target. t must be
// zero at the call; it receives the loop's counters.
func Draw(ctx context.Context, gen Generator, rej Acceptor, n int, t *Tally, emit func(*Candidate) error) error {
	q0 := gen.GenStats().Queries
	for n < 0 || t.Accepted.Load() < int64(n) {
		if err := ctx.Err(); err != nil {
			return err
		}
		cand, err := gen.Candidate(ctx)
		if err != nil {
			// Bill the failed draw's queries too: the generator's counter
			// is exact because nothing runs ahead of this loop.
			t.Queries.Store(gen.GenStats().Queries - q0)
			return err
		}
		t.Candidates.Add(1)
		t.Queries.Add(int64(cand.Queries))
		if rej != nil && !rej.Accept(cand) {
			cand.Trace.Decide(false)
			t.Rejected.Add(1)
			continue
		}
		cand.Trace.Decide(true)
		t.Accepted.Add(1)
		if err := emit(cand); err != nil {
			return err
		}
	}
	return nil
}

// PipelineConfig tunes a pipeline run.
type PipelineConfig struct {
	// Target is the number of accepted samples to collect; 0 runs until
	// the kill switch (Stop) or context cancellation.
	Target int
}

// pipelineBuffer is the sample stream's channel capacity.
const pipelineBuffer = 16

// Pipeline streams accepted samples from a Generator through an Acceptor
// — the demo's incremental Sample Generator → Sample Processor → Output
// Module loop (Figure 2). The three stages are one Draw loop on one
// goroutine: the split is of responsibilities, and a sample's cost is
// counted in interface queries, which a prefetching generator would only
// waste. Consumers read from Samples; the kill switch is Stop or context
// cancellation. After Samples closes, Err reports the terminal error.
type Pipeline struct {
	gen Generator
	rej Acceptor
	cfg PipelineConfig

	samples chan Sample
	cancel  context.CancelFunc

	tally   Tally
	start   time.Time
	elapsed atomic.Int64 // frozen run duration (ns), set before done
	done    atomic.Bool
	err     atomic.Value // error
}

// NewPipeline builds a pipeline; rej may be nil to accept every candidate.
func NewPipeline(gen Generator, rej Acceptor, cfg PipelineConfig) *Pipeline {
	return &Pipeline{gen: gen, rej: rej, cfg: cfg}
}

// Start launches the pipeline and returns the sample stream. It may be
// called once.
func (p *Pipeline) Start(ctx context.Context) <-chan Sample {
	ctx, p.cancel = context.WithCancel(ctx)
	p.samples = make(chan Sample, pipelineBuffer)
	p.start = time.Now()
	n := p.cfg.Target
	if n <= 0 {
		n = -1
	}
	go func() {
		err := Draw(ctx, p.gen, p.rej, n, &p.tally, func(c *Candidate) error {
			select {
			case p.samples <- Sample{Tuple: c.Tuple, Reach: c.Reach, Queries: c.Queries}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil && ctx.Err() == nil {
			p.err.Store(err)
		}
		// Freeze the run duration before publishing done, so Progress
		// never reports a finished pipeline with a still-ticking clock.
		p.elapsed.Store(int64(time.Since(p.start)))
		p.done.Store(true)
		p.cancel()
		close(p.samples)
	}()
	return p.samples
}

// Stop is the kill switch: it halts sampling; the Samples channel closes
// shortly after. Safe to call repeatedly and before Start completes a
// sample.
func (p *Pipeline) Stop() {
	if p.cancel != nil {
		p.cancel()
	}
}

// Err returns the terminal error after the sample stream closes, or nil.
func (p *Pipeline) Err() error {
	if e, ok := p.err.Load().(error); ok {
		return e
	}
	return nil
}

// Progress returns a live snapshot.
func (p *Pipeline) Progress() Progress {
	pr := Progress{
		Candidates: p.tally.Candidates.Load(),
		Accepted:   p.tally.Accepted.Load(),
		Rejected:   p.tally.Rejected.Load(),
		Queries:    p.tally.Queries.Load(),
		Done:       p.done.Load(),
		Err:        p.Err(),
	}
	switch {
	case pr.Done:
		// The run is over: elapsed stays frozen at the completion time
		// instead of growing forever under a status poller.
		pr.Elapsed = time.Duration(p.elapsed.Load())
	case !p.start.IsZero():
		pr.Elapsed = time.Since(p.start)
	}
	return pr
}

// CollectStats summarizes a synchronous Collect run.
type CollectStats struct {
	Candidates int64
	Accepted   int64
	Rejected   int64
	Queries    int64
	Elapsed    time.Duration
}

// Collect synchronously draws n accepted samples with the Draw loop on
// the calling goroutine, for programmatic use.
func Collect(ctx context.Context, gen Generator, rej Acceptor, n int) ([]hiddendb.Tuple, CollectStats, error) {
	start := time.Now()
	out := make([]hiddendb.Tuple, 0, max(n, 0))
	var err error
	var t Tally
	if n > 0 {
		err = Draw(ctx, gen, rej, n, &t, func(c *Candidate) error {
			out = append(out, c.Tuple)
			return nil
		})
	}
	return out, CollectStats{
		Candidates: t.Candidates.Load(),
		Accepted:   t.Accepted.Load(),
		Rejected:   t.Rejected.Load(),
		Queries:    t.Queries.Load(),
		Elapsed:    time.Since(start),
	}, err
}
