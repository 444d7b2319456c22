package jobsvc

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"hdsampler"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/history"
	"hdsampler/internal/metrics"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/telemetry"
)

// hostEntry shares one admission limiter (rate + AIMD concurrency), one
// execution layer per target, and one history cache across every job
// hitting a host.
type hostEntry struct {
	host    string
	limiter *queryexec.Limiter

	// wire / execH / lookup are the host's registry-backed latency
	// histograms, shared by every target stack on the host.
	wire   *telemetry.Histogram
	execH  *telemetry.Histogram
	lookup *telemetry.Histogram

	mu      sync.Mutex
	targets map[string]*target
}

// target is one (connector kind, base URL) stack below the caches: the
// raw formclient conn (optionally wrapped in the configured fault
// profile) wrapped in the shared execution layer (coalescing, batching,
// host-wide admission control). Caches are split by TrustCounts because
// trusted and untrusted inference disagree.
type target struct {
	key    string // connector + "|" + URL, the checkpoint identity
	exec   *queryexec.Executor
	fault  faultform.Faulty // nil without a fault profile
	caches map[bool]*history.Cache
}

// hostLocked returns (creating on first use) the entry for host; the
// caller holds m.mu.
func (m *Manager) hostLocked(host string) *hostEntry {
	he, ok := m.hosts[host]
	if !ok {
		he = &hostEntry{
			host:    host,
			targets: make(map[string]*target),
			wire:    m.wireHist.With(host),
			execH:   m.execHist.With(host),
			lookup:  m.cacheHist.With(host),
		}
		if m.cfg.HostRatePerSec > 0 || m.cfg.HostMaxInFlight > 0 {
			he.limiter = queryexec.NewLimiter(queryexec.LimiterOptions{
				MaxInFlight: m.cfg.HostMaxInFlight,
				RatePerSec:  m.cfg.HostRatePerSec,
				Burst:       m.cfg.HostBurst,
			})
		}
		m.hosts[host] = he
	}
	return he
}

// connFor assembles the job's connector stack: base conn (shared per
// target URL, below the fault profile when one is configured) → shared
// execution layer (coalescing, micro-batching, host-wide AIMD admission)
// → shared history cache (unless opted out) → per-job query budget. A
// cache created here is warm-started from its HistoryDir checkpoint,
// when one exists.
func (he *hostEntry) connFor(spec Spec, cfg Config) hdsampler.Stack {
	key := spec.Connector + "|" + spec.URL

	he.mu.Lock()
	tg, ok := he.targets[key]
	if !ok {
		var base formclient.Conn
		opts := formclient.HTTPOptions{Client: cfg.Client}
		if spec.Connector == ConnectorAPI {
			base = formclient.NewAPI(spec.URL, opts)
		} else {
			base = formclient.NewHTTP(spec.URL, opts)
		}
		var fault faultform.Faulty
		if prof, ok := faultProfile(cfg); ok {
			// Chaos mode: the adversarial wrapper plays the misbehaving
			// site, below the execution layer, so the AIMD limiter and the
			// retry paths absorb the injected rudeness exactly as they
			// would the real thing.
			fault = faultform.Wrap(base, prof, faultSeed(cfg.FaultSeed, key))
			base = fault
		}
		exec := queryexec.New(base, queryexec.Options{
			BatchLinger: cfg.BatchLinger,
			MaxBatch:    cfg.BatchMax,
			Limiter:     he.limiter,
			Wire:        he.wire,
			ExecLatency: he.execH,
		})
		tg = &target{key: key, exec: exec, fault: fault, caches: make(map[bool]*history.Cache)}
		he.targets[key] = tg
	}
	st := hdsampler.Stack{Conn: tg.exec, Exec: tg.exec}
	cache, haveCache := tg.caches[spec.TrustCounts]
	he.mu.Unlock()

	if !spec.NoHistory {
		if !haveCache {
			// Build — and, when configured, warm-start — the cache before
			// publishing it, so no job ever draws through a half-restored
			// cache and no stale checkpoint entry can overwrite an answer
			// a live job just paid for.
			fresh := history.New(tg.exec, history.Options{
				TrustCounts: spec.TrustCounts,
				MaxEntries:  cfg.CacheMaxEntries,
				Lookup:      he.lookup,
			})
			if cfg.HistoryDir != "" {
				warmStartCache(cfg.HistoryDir, historySource(key, spec.TrustCounts), fresh, cfg.logger())
			}
			he.mu.Lock()
			if racer, ok := tg.caches[spec.TrustCounts]; ok {
				cache = racer // a concurrent submit won; ours is discarded
			} else {
				tg.caches[spec.TrustCounts] = fresh
				cache = fresh
			}
			he.mu.Unlock()
		}
		st.Conn, st.Cache = cache, cache
	}

	if spec.MaxQueries > 0 && spec.Method != MethodCrawl {
		st.Conn = &budgetConn{inner: st.Conn, budget: spec.MaxQueries}
	}
	return st
}

// hostList snapshots the host entries.
func (m *Manager) hostList() []*hostEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	hes := make([]*hostEntry, 0, len(m.hosts))
	for _, he := range m.hosts {
		hes = append(hes, he)
	}
	return hes
}

// faultProfile resolves the configured fault preset; ok is false when
// injection is off (empty, "none", or an unknown name — logged once per
// submit path would be noisy, so unknown names log here and disable).
func faultProfile(cfg Config) (faultform.Profile, bool) {
	if cfg.FaultProfile == "" || cfg.FaultProfile == "none" {
		return faultform.Profile{}, false
	}
	p, ok := faultform.Preset(cfg.FaultProfile)
	if !ok {
		cfg.logger().Warn("unknown fault profile; fault injection disabled",
			"component", "jobsvc", "profile", cfg.FaultProfile, "known", fmt.Sprint(faultform.PresetNames()))
		return faultform.Profile{}, false
	}
	return p, true
}

// faultSeed derives a target's fault stream from the daemon seed and the
// target identity, so two targets never replay one misbehaviour script.
func faultSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return seed ^ int64(h.Sum64())
}

// HostStats aggregates one host's shared-infrastructure counters.
type HostStats struct {
	Host string `json:"host"`
	// Issued / ExactHits / Inferred / Evictions sum the host's history
	// caches.
	Issued    int64 `json:"issued"`
	ExactHits int64 `json:"exact_hits"`
	Inferred  int64 `json:"inferred"`
	Evictions int64 `json:"evictions"`
	// Entries is the total cached query count (Protected the pinned
	// subset), Throttled the wire requests the admission limiter had to
	// delay for the politeness budget.
	Entries   int   `json:"entries"`
	Protected int   `json:"protected"`
	Throttled int64 `json:"throttled"`
	// Coalesced / Batched / BatchRequests / WireCalls sum the host's
	// execution-layer savings: queries answered by joining identical
	// in-flight queries, queries shipped inside shared batch requests,
	// the batch wire requests themselves, and total wire executions.
	// TransientRetries counts wire executions the layer repeated after
	// transient interface faults.
	Coalesced        int64 `json:"coalesced"`
	Batched          int64 `json:"batched"`
	BatchRequests    int64 `json:"batch_requests"`
	WireCalls        int64 `json:"wire_calls"`
	TransientRetries int64 `json:"transient_retries"`
	// Faults sums the misbehaviour the configured fault profile injected
	// into this host's targets (all zero without a profile).
	Faults faultform.Stats `json:"faults"`
	// InFlight and Limit snapshot the host's admission controller: wire
	// requests currently running and the AIMD concurrency window (0 when
	// concurrency limiting is off). Backoffs counts 429-pushback window
	// cuts.
	InFlight int     `json:"in_flight"`
	Limit    float64 `json:"limit"`
	Backoffs int64   `json:"backoffs"`
	// ShardBalance summarizes per-shard entry counts across the host's
	// caches: CV 0 means the shards carry identical load.
	ShardBalance metrics.Summary `json:"shard_balance"`
}

// Saved is the host's total query-history savings.
func (h HostStats) Saved() int64 { return h.ExactHits + h.Inferred }

// Hosts reports per-host cache and politeness stats, sorted by host.
func (m *Manager) Hosts() []HostStats {
	hes := m.hostList()
	out := make([]HostStats, 0, len(hes))
	for _, he := range hes {
		hs := HostStats{Host: he.host}
		if he.limiter != nil {
			hs.Throttled = he.limiter.Waits()
			hs.Backoffs = he.limiter.Backoffs()
			hs.InFlight = he.limiter.InFlight()
			hs.Limit = he.limiter.Limit()
		}
		var shardLoads []float64
		he.mu.Lock()
		caches := make([]*history.Cache, 0, len(he.targets))
		for _, tg := range he.targets {
			xs := tg.exec.ExecStats()
			hs.Coalesced += xs.Coalesced
			hs.Batched += xs.Batched
			hs.BatchRequests += xs.BatchRequests
			hs.WireCalls += xs.WireCalls
			hs.TransientRetries += xs.TransientRetries
			if tg.fault != nil {
				fs := tg.fault.FaultStats()
				hs.Faults.RateLimited += fs.RateLimited
				hs.Faults.Exhausted429s += fs.Exhausted429s
				hs.Faults.Transients += fs.Transients
				hs.Faults.Jittered += fs.Jittered
				hs.Faults.Reordered += fs.Reordered
				hs.Faults.RoundedCounts += fs.RoundedCounts
				hs.Faults.SlowCalls += fs.SlowCalls
			}
			for _, c := range tg.caches {
				caches = append(caches, c)
			}
		}
		he.mu.Unlock()
		for _, c := range caches {
			cs := c.CacheStats()
			hs.Issued += cs.Issued
			hs.ExactHits += cs.ExactHits
			hs.Inferred += cs.Inferred
			hs.Evictions += cs.Evictions
			for _, ss := range c.ShardStats() {
				hs.Entries += ss.Entries
				hs.Protected += ss.Protected
				shardLoads = append(shardLoads, float64(ss.Entries))
			}
		}
		hs.ShardBalance = metrics.Summarize(shardLoads)
		out = append(out, hs)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Host < out[k].Host })
	return out
}
