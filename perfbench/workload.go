package main

import (
	"strings"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/jobsvc"
)

// workload is one traffic shape: the site the daemon samples, the daemon
// settings that differ from cmd/hdsamplerd's defaults, and the job
// stream.
type workload struct {
	name string

	// Site: datagen.Vehicles rows behind a top-k interface.
	rows   int
	k      int
	counts hiddendb.CountMode

	// Daemon settings beyond the hdsamplerd defaults.
	linger  time.Duration // jobsvc.Config.BatchLinger
	durable bool          // JournalDir and DataDir on

	// spec is the job template; URL and Seed are filled per job.
	spec jobsvc.Spec

	// clients > 0 makes a closed loop with that many clients; otherwise
	// jobs arrive open loop. Either way a run is a fixed number of jobs,
	// rate per second of --seconds (at least minJobs), so its work and
	// the cache's evolution depend on the seed alone; a closed loop
	// finishes them as fast as it can, an open loop submits one every
	// 1/rate seconds.
	clients int
	rate    float64

	// cacheEntries caps each shared history cache (the daemon's
	// -cache-entries; 0 = unlimited).
	cacheEntries int

	// warmJobs run one after another with fixed seeds before the timer:
	// they finish the connector's schema discovery and drive the shared
	// history cache to a fixed state.
	warmJobs int

	// skew is the total-variation distance between a pooled sample
	// marginal and the true marginal that the workload's sampler may
	// show beyond sampling noise: the documented bias of a slider below
	// 1, none for count-weighted sampling over exact counts.
	skew float64
}

// minJobs is the job count a run needs so that the p90 latency has at
// least ten jobs beyond it.
const minJobs = 100

func slider(v float64) *float64 { return &v }

// workloads lists the benchmark's traffic shapes. BENCHMARK.json records
// why each exists.
var workloads = []workload{
	{
		// Every walk step crosses the wire with a page of up to 1000 rows:
		// webform HTML rendering and formclient scraping carry the time.
		// No history, one worker, one client: history and queryexec
		// coalescing have nothing to do, and every wire call is serial.
		name: "html-k1000-nohist",
		rows: 20000, k: 1000, counts: hiddendb.CountNone,
		spec: jobsvc.Spec{
			Connector: jobsvc.ConnectorHTML, Method: jobsvc.MethodUniform,
			N: 3, Workers: 1, Slider: slider(0.9), K: 1000, NoHistory: true,
		},
		clients:  1,
		rate:     8,
		warmJobs: 3,
		skew:     0.2,
	},
	{
		// Small JSON pages through a warm shared history cache: walk CPU,
		// cache lookup, inference and eviction do most of the work. The
		// cap keeps the warm cache in a steady state; unlimited, it would
		// keep filling until a sample costs almost no wire query.
		name: "api-k100-shared",
		rows: 20000, k: 100, counts: hiddendb.CountNone,
		spec: jobsvc.Spec{
			Connector: jobsvc.ConnectorAPI, Method: jobsvc.MethodUniform,
			N: 100, Workers: 2, Slider: slider(0.9), K: 100,
		},
		clients:      2,
		rate:         25,
		cacheEntries: 4096,
		warmJobs:     10,
		skew:         0.2,
	},
	{
		// Small count-weighted jobs arriving on a fixed schedule below
		// capacity: count probes and sibling-count inference, larger
		// posting lists, batch linger instead of coalescing, fsynced
		// journal writes, and queueing that shows in latency.
		name: "weighted-100k-open",
		rows: 100000, k: 100, counts: hiddendb.CountExact,
		linger: 2 * time.Millisecond, durable: true,
		spec: jobsvc.Spec{
			Connector: jobsvc.ConnectorAPI, Method: jobsvc.MethodWeighted,
			N: 2, Workers: 2, K: 100, TrustCounts: true,
		},
		rate:     7,
		warmJobs: 5,
		skew:     0.02,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// jobSeed derives the i-th job seed of a run from the workload seed.
func jobSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i) + 1
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}
