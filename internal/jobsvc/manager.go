package jobsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"hdsampler/internal/jobq"
	"hdsampler/internal/telemetry"
)

// Config tunes a Manager.
type Config struct {
	// DataDir, when set, receives one JSON checkpoint per finished job
	// (<id>.json, a store.SampleSet) — including partial sets of failed
	// and cancelled jobs. Empty disables persistence.
	DataDir string
	// MaxConcurrent bounds simultaneously running jobs; the rest queue.
	// Default 4.
	MaxConcurrent int
	// HostRatePerSec is the per-host politeness budget: all jobs hitting
	// one host together issue at most this many real wire requests per
	// second (a batch request counts once — that is the batching win).
	// 0 disables throttling.
	HostRatePerSec float64
	// HostBurst is the politeness token bucket capacity (default 10).
	HostBurst int
	// HostMaxInFlight caps concurrent wire requests per host: the AIMD
	// adaptive-concurrency ceiling, additively raised on clean responses
	// and multiplicatively cut on 429 pushback. 0 disables concurrency
	// limiting.
	HostMaxInFlight int
	// BatchLinger, when positive, lets concurrent distinct queries from
	// all jobs on one API target share batch wire requests packed within
	// this window (POST /api/search/batch; one rate-limit charge per
	// batch). HTML targets fall back to sequential execution.
	BatchLinger time.Duration
	// BatchMax bounds queries per batch wire request (default 16).
	BatchMax int
	// CacheMaxEntries caps each shared per-host history cache
	// (0 = unlimited).
	CacheMaxEntries int
	// HistoryDir, when set, checkpoints each shared per-host history
	// cache there on shutdown (and periodically, piggybacked on journal
	// checkpoints) and warm-starts new caches from matching checkpoints,
	// so a restarted daemon does not re-pay query bills the previous run
	// already paid. Empty disables history persistence.
	HistoryDir string
	// JournalDir, when set, enables the crash-safe job journal: every
	// admission is fsynced before Submit acknowledges it, running jobs
	// checkpoint progress under a lease epoch, and a restarted manager
	// replays the journal — terminal jobs reappear in the table, and
	// interrupted jobs are requeued and resumed under a fresh epoch.
	// A journal disk failure degrades the manager to memory-only
	// operation (surfaced on Health and /metrics), never fails jobs.
	// Empty disables durability.
	JournalDir string
	// CheckpointEvery is the interval between mid-run progress
	// checkpoints journaled for each running job (default 2s; negative
	// disables mid-run checkpoints, leaving admission/terminal records).
	CheckpointEvery time.Duration
	// JournalCompactEvery overrides the journal's snapshot+truncate
	// compaction cadence in records (0 = jobq default).
	JournalCompactEvery int
	// FaultProfile, when naming a faultform preset other than "none",
	// wraps every target connector in that adversarial profile — the
	// daemon's chaos/staging mode: jobs run against a deliberately
	// misbehaving interface (429 bursts, blips, jitter) so operators can
	// prove the stack absorbs production-grade rudeness before pointing
	// it at production. Injected fault counts surface per host on
	// /metrics. Unknown names are rejected by cmd/hdsamplerd and ignored
	// (with a log line) here.
	FaultProfile string
	// FaultSeed makes the injected misbehaviour reproducible; each target
	// derives its own stream from this and its identity.
	FaultSeed int64
	// Client overrides the HTTP client used for target connectors
	// (timeouts, proxies, test servers).
	Client *http.Client
	// TraceSampleRate is the fraction of candidate draws traced end to end
	// (per-level queries, cache and execution outcomes, latencies) and
	// exposed on /debug/walks. 0 disables tracing; 1 traces every walk.
	TraceSampleRate float64
	// TraceCapacity is the finished-trace ring buffer size (default 128).
	TraceCapacity int
	// TraceSeed seeds the deterministic trace sampler; runs with equal
	// seeds sample the same walk positions.
	TraceSeed uint64
	// SlowWalk, when positive, logs (and counts) candidate draws that take
	// at least this long.
	SlowWalk time.Duration
	// SlowWalkQueries, when positive, logs (and counts) candidate draws
	// that spend at least this many interface queries.
	SlowWalkQueries int
	// Logger receives the manager's structured log output; nil uses
	// slog.Default.
	Logger *slog.Logger
}

// logger resolves the configured structured logger.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// Manager owns the job table, the per-host connector stacks and the run
// slots. It is safe for concurrent use by the HTTP layer.
type Manager struct {
	cfg Config
	sem chan struct{}
	lg  *slog.Logger

	// Telemetry: the unified metrics registry behind /metrics, the walk
	// tracer behind /debug/walks, and the shared latency histograms the
	// per-host stacks and per-job observers record into.
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	wireHist  *telemetry.HistogramVec // wire RTT by host
	execHist  *telemetry.HistogramVec // execution-layer latency by host
	cacheHist *telemetry.HistogramVec // cache lookup latency by host
	walkHist  *telemetry.HistogramVec // whole-walk duration by job
	slowWalks *telemetry.Counter

	// journal is the crash-safe job journal (nil without JournalDir);
	// journalBroken records a journal that failed to open at startup, so
	// health can say "durability configured but unavailable".
	journal       *jobq.Journal
	journalBroken bool

	// histMu throttles the periodic history dumps piggybacked on journal
	// checkpoints (dumpHistory walks every cache; once per few seconds is
	// plenty for a kill-9 warm start).
	histMu       sync.Mutex
	lastHistDump time.Time

	mu     sync.Mutex
	seq    int
	jobs   map[string]*job
	order  []*job // submission order
	hosts  map[string]*hostEntry
	closed bool
	wg     sync.WaitGroup
}

// NewManager builds a manager; call Shutdown before discarding it. With
// JournalDir set it replays the journal first: terminal jobs reappear in
// the table and interrupted jobs are requeued under a fresh lease epoch.
// A journal that cannot open degrades the manager to memory-only
// operation (loudly) rather than failing construction.
func NewManager(cfg Config) *Manager {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2 * time.Second
	}
	m := &Manager{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		lg:    cfg.logger().With("component", "jobsvc"),
		reg:   telemetry.NewRegistry(),
		jobs:  make(map[string]*job),
		hosts: make(map[string]*hostEntry),
	}
	m.tracer = telemetry.NewTracer(telemetry.TracerOptions{
		Rate:     cfg.TraceSampleRate,
		Seed:     cfg.TraceSeed,
		Capacity: cfg.TraceCapacity,
	})
	var replay *jobq.Replay
	if cfg.JournalDir != "" {
		jr, rep, err := jobq.Open(cfg.JournalDir, jobq.Options{
			CompactEvery: cfg.JournalCompactEvery,
			Logger:       m.lg,
		})
		if err != nil {
			m.journalBroken = true
			m.lg.Error("job journal unavailable; running without durability",
				"dir", cfg.JournalDir, "error", err)
		} else {
			m.journal = jr
			replay = rep
		}
	}
	m.registerMetrics()
	if replay != nil {
		m.restore(replay)
	}
	return m
}

// Registry exposes the manager's metrics registry (the /metrics source).
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Tracer exposes the manager's walk tracer (the /debug/walks source).
func (m *Manager) Tracer() *telemetry.Tracer { return m.tracer }

// Submit validates and enqueues a job, returning its initial view. The
// job starts as soon as a run slot frees up. With a journal configured,
// the admission is fsynced before Submit returns: an acknowledged job
// survives SIGKILL.
func (m *Manager) Submit(spec Spec) (View, error) {
	u, err := spec.normalize()
	if err != nil {
		return View{}, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return View{}, ErrShuttingDown
	}
	host := m.hostLocked(u.Host)
	m.seq++
	id := fmt.Sprintf("j-%04d", m.seq)
	m.mu.Unlock()

	// Journal the admission before acknowledging it — outside m.mu, the
	// fsync must not serialize the whole job table. Disk failures degrade
	// the journal internally (Admit still returns nil); the only real
	// error here is a closed journal racing shutdown.
	created := time.Now().UTC()
	if m.journal != nil {
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = m.journal.Admit(id, specJSON, created)
		}
		if jerr != nil {
			if errors.Is(jerr, jobq.ErrClosed) {
				return View{}, ErrShuttingDown
			}
			m.lg.Warn("journal admit failed", "job", id, "error", jerr)
		}
	}

	// Assemble the connector stack before publishing the job, so every
	// field concurrent view() calls read is in place first.
	st := host.connFor(spec, m.cfg)
	j := &job{id: id, spec: spec, host: u.Host, state: StateQueued, created: created}
	//hdlint:ignore ctxflow a job outlives the submitting request; its lifetime is bounded by cancel via Stop/Close, not by any caller context
	j.ctx, j.cancel = context.WithCancel(context.Background())

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// The admission is already journaled; record the cancellation so
		// a restart does not resurrect a job the caller was refused.
		j.cancel()
		if m.journal != nil {
			if jerr := m.journal.Terminal(id, 0, string(StateCanceled), "", "shutdown before start", nil); jerr != nil {
				m.lg.Warn("journal terminal append failed", "job", id, "error", jerr)
			}
		}
		return View{}, ErrShuttingDown
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j, st)
	return j.view(), nil
}

// restore rebuilds the job table from a journal replay: terminal jobs
// come back as read-only table entries (their sample sets lazy-load from
// the checkpoint pointer), interrupted jobs — queued or running at the
// crash — are requeued and resumed under a fresh lease epoch. Runs
// during construction, before the manager is published.
func (m *Manager) restore(rep *jobq.Replay) {
	if rep.Torn || rep.Fenced > 0 {
		m.lg.Warn("journal replay salvaged a crashed log",
			"records", rep.Records, "torn_tail", rep.Torn, "fenced", rep.Fenced)
	}
	// Replay order is commit order; concurrent submits may have committed
	// out of ID order, so re-sort for a stable table.
	jobs := append([]*jobq.JobRecord(nil), rep.Jobs...)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	for _, jr := range jobs {
		var n int
		if _, err := fmt.Sscanf(jr.ID, "j-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		var spec Spec
		if err := json.Unmarshal(jr.Spec, &spec); err != nil {
			m.lg.Error("journaled job spec unreadable; job dropped", "job", jr.ID, "error", err)
			continue
		}
		u, err := spec.normalize()
		if err != nil {
			m.lg.Error("journaled job spec invalid; job dropped", "job", jr.ID, "error", err)
			continue
		}

		j := &job{id: jr.ID, spec: spec, host: u.Host, created: jr.Created, epoch: jr.Epoch}
		if term := jr.Terminal; term != nil {
			// Terminal jobs are inert table entries: no context, no conn.
			j.state = State(term.State)
			j.started = jr.Started
			j.finished = term.At
			j.checkpoint = term.Pointer
			if term.Err != "" {
				j.err = errors.New(term.Err)
			}
			if term.Stats != nil {
				j.final = statsFromCkpt(term.Stats)
			}
			j.cancel = func() {}
			m.jobs[j.id] = j
			m.order = append(m.order, j)
			continue
		}

		// Interrupted job: adopt its last progress checkpoint (samples
		// already paid for resume for free) and requeue.
		j.state = StateQueued
		if jr.Ckpt != nil && spec.Method != MethodCrawl {
			j.adoptCheckpoint(jr.Ckpt, m.lg)
		}
		//hdlint:ignore ctxflow a requeued job outlives the restore; its lifetime is bounded by cancel via Cancel/Shutdown, not by any caller context
		j.ctx, j.cancel = context.WithCancel(context.Background())
		host := m.hostLocked(u.Host)
		st := host.connFor(spec, m.cfg)
		m.jobs[j.id] = j
		m.order = append(m.order, j)
		m.wg.Add(1)
		m.lg.Info("requeued interrupted job from journal",
			"job", j.id, "epoch", jr.Epoch, "accepted_base", len(j.base.samples))
		go m.run(j, st)
	}
}

// Jobs lists every job in submission order.
func (m *Manager) Jobs() []View {
	m.mu.Lock()
	js := slices.Clone(m.order)
	m.mu.Unlock()
	out := make([]View, len(js))
	for i, j := range js {
		out[i] = j.view()
	}
	return out
}

// Job returns one job's snapshot.
func (m *Manager) Job(id string) (View, error) {
	j, ok := m.lookup(id)
	if !ok {
		return View{}, ErrNotFound
	}
	return j.view(), nil
}

// lookup finds a job by ID.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel stops a queued or running job; cancelling a terminal job is a
// no-op. The job transitions to canceled once its workers drain.
func (m *Manager) Cancel(id string) (View, error) {
	j, ok := m.lookup(id)
	if !ok {
		return View{}, ErrNotFound
	}
	j.stop()
	return j.view(), nil
}

// stop marks a live job cancelled, so its finish records canceled rather
// than failed, then cancels its context.
func (j *job) stop() {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// Health summarizes the manager's durability state for /healthz.
type Health struct {
	// Status is "ok", or "degraded" when configured durability is not
	// actually protecting jobs (journal failed to open or lost its disk).
	Status string `json:"status"`
	// Journal is "off" (no JournalDir), "ok", "degraded" (disk failure,
	// memory-only since), or "unavailable" (failed to open at startup).
	Journal string `json:"journal"`
	// JournalStats carries the live journal counters when a journal is
	// running.
	JournalStats *jobq.Stats `json:"journal_stats,omitempty"`
	// Jobs is the job-table size; Draining reports shutdown in progress.
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
}

// Health reports the manager's durability health.
func (m *Manager) Health() Health {
	m.mu.Lock()
	jobs, closed := len(m.jobs), m.closed
	m.mu.Unlock()
	h := Health{Status: "ok", Journal: "off", Jobs: jobs, Draining: closed}
	if m.journalBroken {
		h.Status = "degraded"
		h.Journal = "unavailable"
	}
	if m.journal != nil {
		st := m.journal.Stats()
		h.JournalStats = &st
		if st.Degraded {
			h.Status = "degraded"
			h.Journal = "degraded"
		} else {
			h.Journal = "ok"
		}
	}
	return h
}

// JournalStats snapshots the journal counters (zero value without a
// journal), for /metrics.
func (m *Manager) JournalStats() jobq.Stats {
	if m.journal == nil {
		return jobq.Stats{}
	}
	return m.journal.Stats()
}

// Shutdown stops accepting jobs, cancels everything queued or running and
// waits (bounded by ctx) for the workers to drain; partial sample sets
// are persisted by each job's normal finish path, and each cancellation
// is journaled as a terminal transition — a gracefully stopped job is
// not requeued on restart, only a killed one is.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	js := slices.Clone(m.order)
	m.mu.Unlock()
	for _, j := range js {
		j.stop()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		m.dumpHistory()
	case <-ctx.Done():
		// Checkpoint what we can even on an overrun drain; Dump is safe
		// while stragglers still write.
		m.dumpHistory()
		err = fmt.Errorf("jobsvc: shutdown: %w", ctx.Err())
	}
	if m.journal != nil {
		// After the drain every terminal record is in; stragglers past an
		// overrun deadline lose their terminal append (logged) and are
		// requeued on restart — the safe direction.
		if cerr := m.journal.Close(); cerr != nil {
			m.lg.Warn("journal close", "error", cerr)
		}
	}
	return err
}
