package jobsvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"hdsampler"
	"hdsampler/internal/core"
	"hdsampler/internal/history"
	"hdsampler/internal/jobq"
	"hdsampler/internal/store"
	"hdsampler/internal/telemetry"
)

// job is the manager's internal job record.
type job struct {
	id   string
	spec Spec
	host string

	ctx    context.Context
	cancel context.CancelFunc

	// base is the progress a previous run (earlier lease epoch) already
	// paid for, adopted from the journal at restore time; zero for a job
	// that never resumed. Written only before the run goroutine starts,
	// so reads need no lock.
	base progress

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	epoch    int64 // current journal lease epoch (0 = never leased)
	// The live source of progress while running: a sampling run's
	// replica set or a crawl. Both are released at finish.
	rs         *hdsampler.ReplicaSet
	crawl      *crawlRun
	final      hdsampler.Stats
	err        error
	set        *store.SampleSet
	checkpoint string
	cancelled  bool
}

// progress is a job's cumulative sampling progress: the counters, the
// accepted samples (each Sample.Queries is that sample's query bill), and
// the schema and rejection target the samples were drawn under.
type progress struct {
	stats   hdsampler.Stats
	samples []hdsampler.Sample
	schema  *hdsampler.Schema
	c       float64
}

// crawlRun is a running crawl plus the cache counter its savings window
// starts from.
type crawlRun struct {
	c      *core.Crawler
	cache  *history.Cache // nil without history
	saved0 int64
}

// progress returns the job's cumulative progress from whichever source is
// current: the final record once terminal (terminal is then true and the
// samples live in the persisted set), the live crawl, the resume base plus
// the live replica set, or the base alone (queued, or requeued after a
// crash and not yet running). Samples are copied only when withSamples is
// set, so the view polls stay stats-only.
func (j *job) progress(withSamples bool) (p progress, terminal bool) {
	j.mu.Lock()
	terminal = j.state.Terminal()
	final, rs, crawl, started := j.final, j.rs, j.crawl, j.started
	j.mu.Unlock()

	switch {
	case terminal:
		return progress{stats: final}, true
	case crawl != nil:
		p.stats = hdsampler.Stats{Queries: crawl.c.Queries(), Elapsed: time.Since(started)}
		if crawl.cache != nil {
			p.stats.QueriesSaved = crawl.cache.CacheStats().Saved() - crawl.saved0
		}
		return p, false
	case rs == nil:
		return j.base, false // shared, read-only: no copy
	}

	live, b := rs.Progress(), j.base.stats
	live.Accepted += b.Accepted
	live.Candidates += b.Candidates
	live.Rejected += b.Rejected
	live.Queries += b.Queries
	live.QueriesSaved += b.QueriesSaved
	live.Elapsed += b.Elapsed
	p = progress{stats: live, schema: rs.Schema(), c: rs.C()}
	if withSamples {
		p.samples = rs.Samples()
		if len(j.base.samples) > 0 {
			p.samples = append(slices.Clip(j.base.samples), p.samples...)
		}
		// One source for the count: the samples this snapshot carries.
		p.stats.Accepted = int64(len(p.samples))
	}
	return p, false
}

// adoptCheckpoint decodes a replayed progress checkpoint into the job's
// resume base. The samples payload is authoritative: if it fails to
// decode, the sample counts are dropped (the job redraws everything) but
// the query bill is kept — the interface charges already happened, and
// the accounting must stay monotone across restarts.
func (j *job) adoptCheckpoint(ck *jobq.Checkpoint, lg *slog.Logger) {
	j.base = progress{stats: statsFromCkpt(ck)}
	j.base.stats.Accepted = 0
	if len(ck.Samples) == 0 {
		return
	}
	set, err := store.Read(bytes.NewReader(ck.Samples))
	var schema *hdsampler.Schema
	var tuples []hdsampler.Tuple
	var reaches []float64
	if err == nil {
		schema, err = set.DecodeSchema()
	}
	if err == nil {
		tuples, reaches, err = set.DecodeSamples()
	}
	if err != nil {
		lg.Warn("checkpoint samples unreadable; job will redraw, bill preserved",
			"job", j.id, "error", err)
		return
	}
	samples := make([]hdsampler.Sample, len(tuples))
	for i, t := range tuples {
		samples[i] = hdsampler.Sample{Tuple: t, Reach: reaches[i]}
		if i < len(ck.Bills) {
			samples[i].Queries = int(ck.Bills[i])
		}
	}
	j.base.samples, j.base.schema, j.base.c = samples, schema, set.C
	j.base.stats.Accepted = int64(len(samples))
}

// ckptFromStats converts sampler stats into a journal checkpoint's
// cumulative counters.
func ckptFromStats(s hdsampler.Stats) *jobq.Checkpoint {
	return &jobq.Checkpoint{
		Accepted:       s.Accepted,
		Candidates:     s.Candidates,
		Rejected:       s.Rejected,
		Queries:        s.Queries,
		QueriesSaved:   s.QueriesSaved,
		ElapsedSeconds: s.Elapsed.Seconds(),
	}
}

// statsFromCkpt is the inverse of ckptFromStats.
func statsFromCkpt(ck *jobq.Checkpoint) hdsampler.Stats {
	return hdsampler.Stats{
		Accepted:     ck.Accepted,
		Candidates:   ck.Candidates,
		Rejected:     ck.Rejected,
		Queries:      ck.Queries,
		QueriesSaved: ck.QueriesSaved,
		Elapsed:      time.Duration(ck.ElapsedSeconds * float64(time.Second)),
	}
}

// run executes one job to completion; it owns the job's state machine.
func (m *Manager) run(j *job, st hdsampler.Stack) {
	defer m.wg.Done()

	// Acquire a run slot; cancellation while queued finishes the job
	// without ever running it.
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-j.ctx.Done():
		m.finishNow(j, j.ctx.Err())
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()

	// Take the run's lease epoch: every checkpoint and the terminal
	// record carry it, so a zombie writer from a superseded run is fenced
	// at the journal.
	var epoch int64
	if m.journal != nil {
		ep, err := m.journal.Lease(j.id)
		if err != nil {
			m.lg.Warn("journal lease failed; job runs unfenced", "job", j.id, "error", err)
		} else {
			epoch = ep
			j.mu.Lock()
			j.epoch = ep
			j.mu.Unlock()
		}
	}

	if j.spec.Method == MethodCrawl {
		m.runCrawl(j, st)
		return
	}

	// A resumed job draws only what its adopted checkpoint is missing.
	remaining := j.spec.N - len(j.base.samples)
	if remaining <= 0 {
		m.finishNow(j, nil)
		return
	}

	cfg := hdsampler.Config{
		Seed:         j.spec.Seed,
		C:            j.spec.C,
		K:            j.spec.K,
		ShuffleOrder: !j.spec.NoShuffle,
		// One observer per job: the duration histogram series carries the
		// job label, while the tracer, slow-walk counter and logger are the
		// daemon-wide instruments. Replicas share it (its instruments are
		// concurrency-safe).
		Obs: &telemetry.WalkObserver{
			Tracer:      m.tracer,
			Duration:    m.walkHist.With(j.id),
			SlowWalk:    m.cfg.SlowWalk,
			SlowQueries: m.cfg.SlowWalkQueries,
			SlowCount:   m.slowWalks,
			Logger:      m.lg,
			Job:         j.id,
			Host:        j.host,
		},
	}
	if j.spec.Slider != nil {
		cfg.Slider = *j.spec.Slider
		cfg.SliderSet = true
	}
	if j.spec.Method == MethodWeighted {
		cfg.Method = hdsampler.MethodCountWeighted
		cfg.UseParentCount = j.spec.TrustCounts
	}
	if epoch > 1 {
		// Resumed run: perturb the seed per epoch so the redraw explores
		// fresh walk randomness instead of replaying the crashed run's
		// prefix (which would re-pay its query bill walk for walk). The
		// first run (epoch 1) keeps the spec seed exactly.
		cfg.Seed = j.spec.Seed + (epoch-1)*1_000_003
	}
	rs, err := hdsampler.NewReplicaSetOn(j.ctx, st, cfg, j.spec.Workers)
	if err != nil {
		m.finishNow(j, err)
		return
	}
	j.mu.Lock()
	j.rs = rs
	j.mu.Unlock()

	// Journal progress periodically while the pool draws. The loop stops
	// (and is awaited) before finish, so no checkpoint can race the
	// terminal record.
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	if m.journal != nil && m.cfg.CheckpointEvery > 0 {
		go m.checkpointLoop(j, stop, ckptDone)
	} else {
		close(ckptDone)
	}

	_, _, err = rs.Draw(j.ctx, remaining)
	close(stop)
	<-ckptDone
	m.finishNow(j, err)
}

// checkpointLoop journals the job's cumulative progress every
// CheckpointEvery until stopped; done closes when the loop exits.
func (m *Manager) checkpointLoop(j *job, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.checkpointOnce(j)
		}
	}
}

// checkpointOnce journals one cumulative progress checkpoint: the
// counters, the per-sample query bills, and the accepted samples as a
// serialized store.SampleSet. Only the checkpoint loop calls it, while
// the replica set is live.
func (m *Manager) checkpointOnce(j *job) {
	p, _ := j.progress(true)
	j.mu.Lock()
	epoch := j.epoch
	j.mu.Unlock()

	ck := ckptFromStats(p.stats)
	ck.Bills = make([]int64, len(p.samples))
	for i, s := range p.samples {
		ck.Bills[i] = int64(s.Queries)
	}
	set, err := j.sampleSet(p)
	if err != nil {
		m.lg.Warn("progress checkpoint skipped: sample set", "job", j.id, "error", err)
		return
	}
	if set != nil {
		var buf bytes.Buffer
		if err := set.Write(&buf); err != nil {
			m.lg.Warn("progress checkpoint skipped: encode", "job", j.id, "error", err)
			return
		}
		ck.Samples = buf.Bytes()
	}
	if err := m.journal.Checkpoint(j.id, epoch, ck); err != nil {
		m.lg.Warn("progress checkpoint rejected", "job", j.id, "error", err)
		return
	}
	// Piggyback a throttled history dump so the shared caches also
	// survive kill-9, not just graceful shutdown.
	m.maybeDumpHistory()
}

// runCrawl executes a full-extraction job.
func (m *Manager) runCrawl(j *job, st hdsampler.Stack) {
	c, err := core.NewCrawler(j.ctx, st.Conn, core.CrawlerConfig{MaxQueries: j.spec.MaxQueries})
	if err != nil {
		m.finishNow(j, err)
		return
	}
	cr := &crawlRun{c: c, cache: st.Cache}
	if st.Cache != nil {
		cr.saved0 = st.Cache.CacheStats().Saved()
	}
	j.mu.Lock()
	j.crawl = cr
	j.mu.Unlock()

	tuples, err := c.Run(j.ctx)
	p, _ := j.progress(false)
	p.stats.Accepted = int64(len(tuples))
	p.stats.Candidates = int64(len(tuples))
	schema, serr := st.Conn.Schema(j.ctx)
	if serr == nil {
		p.schema, p.c = schema, 1
		p.samples = make([]hdsampler.Sample, len(tuples))
		for i, t := range tuples {
			p.samples[i] = hdsampler.Sample{Tuple: t}
		}
	} else if err == nil {
		err = serr
	}
	j.finish(m, p, err)
}

// sampleSet packages the accepted samples as a persistable
// store.SampleSet; nil (with no error) when there are no samples to keep.
func (j *job) sampleSet(p progress) (*store.SampleSet, error) {
	if len(p.samples) == 0 {
		return nil, nil
	}
	tuples := make([]hdsampler.Tuple, len(p.samples))
	reaches := make([]float64, len(p.samples))
	for i, s := range p.samples {
		tuples[i] = s.Tuple
		reaches[i] = s.Reach
	}
	return store.New(j.spec.URL, j.spec.Method, p.c, p.schema, tuples, reaches, p.stats.Queries)
}

// finishNow finishes a sampling job with its current cumulative progress.
func (m *Manager) finishNow(j *job, err error) {
	p, _ := j.progress(true)
	j.finish(m, p, err)
}

// finish checkpoints the sample set, records the terminal state and
// journals the terminal transition.
func (j *job) finish(m *Manager, p progress, err error) {
	set, serr := j.sampleSet(p)
	if err == nil {
		err = serr
	}

	// Persist before publishing the terminal state, so every terminal
	// view already carries its checkpoint pointer. The finish time is the
	// run's end, taken before the write.
	finished := time.Now().UTC()
	id := j.id
	var path string
	var perr error
	if m.cfg.DataDir != "" && set != nil {
		path = filepath.Join(m.cfg.DataDir, id+".json")
		perr = os.MkdirAll(m.cfg.DataDir, 0o755)
		if perr == nil {
			perr = store.SaveFile(path, set)
		}
		if perr != nil {
			m.lg.Warn("sample checkpoint failed", "job", id, "path", path, "error", perr)
		}
	}

	j.mu.Lock()
	j.finished = finished
	j.final = p.stats
	j.set = set
	switch {
	case j.cancelled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		if errors.Is(err, context.Canceled) {
			err = nil
		}
	case err != nil:
		j.state = StateFailed
	default:
		j.state = StateCompleted
	}
	j.err = err
	switch {
	case perr != nil:
		// Keep the terminal state but surface the broken durability on
		// the view.
		if j.err == nil {
			j.err = fmt.Errorf("checkpoint: %w", perr)
		}
	case path != "":
		j.checkpoint = path
	}
	// Release the live sources: terminal views read the final record and
	// j.set, and a long-running daemon must not retain every finished
	// job's samplers and duplicate sample slices.
	j.rs = nil
	j.crawl = nil
	state, ptr, epoch := j.state, j.checkpoint, j.epoch
	var errMsg string
	if j.err != nil {
		errMsg = j.err.Error()
	}
	j.mu.Unlock()

	// Journal the terminal transition (after persisting, so the record
	// carries the checkpoint pointer). The journal mutex is a leaf: never
	// called with j.mu or m.mu held.
	if m.journal != nil {
		if jerr := m.journal.Terminal(id, epoch, string(state), ptr, errMsg, ckptFromStats(p.stats)); jerr != nil {
			m.lg.Warn("journal terminal append failed", "job", id, "error", jerr)
		}
	}
	m.maybeDumpHistory()
}

// finalSet returns a terminal job's sample set. A journal-restored
// terminal job keeps only the checkpoint pointer; the set is loaded (and
// cached) on first request.
func (j *job) finalSet() (*store.SampleSet, error) {
	j.mu.Lock()
	set, ptr := j.set, j.checkpoint
	j.mu.Unlock()
	switch {
	case set != nil:
		return set, nil
	case ptr == "":
		return nil, ErrNoSamples
	}
	loaded, err := store.LoadFile(ptr)
	if err != nil {
		return nil, fmt.Errorf("jobsvc: load checkpoint %s: %w", ptr, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.set == nil {
		j.set = loaded
	}
	return j.set, nil
}

// view snapshots the job with its cumulative progress counters.
func (j *job) view() View {
	j.mu.Lock()
	v := View{
		ID:         j.id,
		State:      j.state,
		Spec:       j.spec,
		Created:    j.created,
		Checkpoint: j.checkpoint,
		Epoch:      j.epoch,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.mu.Unlock()

	// Read after the state: a state already terminal here is terminal in
	// progress too, so a terminal view always carries the final record.
	p, _ := j.progress(false)
	v.Accepted = p.stats.Accepted
	v.Candidates = p.stats.Candidates
	v.Rejected = p.stats.Rejected
	v.Queries = p.stats.Queries
	v.QueriesSaved = p.stats.QueriesSaved
	if p.stats.Candidates > 0 {
		v.AcceptanceRate = float64(p.stats.Accepted) / float64(p.stats.Candidates)
	}
	v.ElapsedSeconds = p.stats.Elapsed.Seconds()
	return v
}

// SampleSet returns a job's samples as a persistable set: the final set
// for terminal jobs, a snapshot of the cumulative progress otherwise.
func (m *Manager) SampleSet(id string) (*store.SampleSet, error) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, ErrNotFound
	}
	p, terminal := j.progress(true)
	switch {
	case terminal:
		return j.finalSet()
	case len(p.samples) == 0:
		return nil, ErrNoSamples
	}
	return j.sampleSet(p)
}
