package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// endToEnd computes the metrics a user of the daemon sees, from an
// untraced phase.
func endToEnd(p *phase) map[string]metric {
	acc := float64(max(p.accepted, 1))
	lat := make([]float64, 0, len(p.jobs))
	for _, r := range p.jobs {
		d := r.latency()
		if !r.ok() || d <= 0 {
			// A failed job misses any latency limit: count it as the
			// whole phase.
			d = p.wall
		}
		lat = append(lat, ms(d))
	}
	ok := float64(len(p.jobs) - p.failedJobs())
	return map[string]metric{
		"setup_s":                 {median(p.setups).Seconds(), "s"},
		"ms_per_sample":           {p.msPerSample(), "ms"},
		"cpu_ms_per_sample":       {ms(p.cpu) / acc, "ms"},
		"wire_queries_per_sample": {float64(p.wireQueries) / acc, "count"},
		"job_latency_p50_ms":      {quantile(lat, 0.5), "ms"},
		"job_latency_p90_ms":      {quantile(lat, 0.9), "ms"},
		"jobs_ok_ratio":           {ok / float64(max(len(p.jobs), 1)), "ratio"},
		"alloc_kb_per_sample":     {float64(p.allocBytes) / 1e3 / acc, "kB"},
		"peak_heap_mb":            {float64(p.peakLive) / 1e6, "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced phase: work count,
// busy time and wait time at each layer's boundary.
func perLayer(p *phase) map[string]metric {
	acc := float64(max(p.accepted, 1))
	jobs := float64(max(len(p.jobs), 1))
	var submit, queue, run []float64
	var candidates, queries int64
	for _, r := range p.jobs {
		submit = append(submit, ms(r.submit))
		v := r.view
		if v.Started != nil && v.Finished != nil {
			queue = append(queue, ms(v.Started.Sub(v.Created)))
			run = append(run, ms(v.Finished.Sub(*v.Started)))
		}
		if r.ok() {
			candidates += v.Candidates
			queries += v.Queries
		}
	}
	d := p.after.minus(p.before)
	out := map[string]metric{
		// jobsvc: the REST client's submit, and each job's queue wait and
		// run time from its own view.
		"jobsvc.submit_ms.p50":          {quantile(submit, 0.5), "ms"},
		"jobsvc.queue_wait_ms.p50":      {quantile(queue, 0.5), "ms"},
		"jobsvc.run_ms.p50":             {quantile(run, 0.5), "ms"},
		"jobsvc.journal_fsyncs_per_job": {d.fsyncs / jobs, "count"},

		// core: the walk, from the daemon's walk histogram and the job
		// views' counters.
		"core.walk_ms.mean":          {d.walk.mean() * 1e3, "ms"},
		"core.candidates_per_sample": {float64(candidates) / acc, "count"},
		"core.queries_per_sample":    {float64(queries) / acc, "count"},

		// history: the shared per-host caches.
		"history.saved_ratio":    {ratio(d.saved, d.saved+d.issued), "ratio"},
		"history.lookup_us.mean": {d.lookup.mean() * 1e6, "us"},
		"history.entries":        {float64(p.after.entries), "count"},

		// queryexec: the shared execution layer.
		"queryexec.latency_us.mean":         {d.exec.mean() * 1e6, "us"},
		"queryexec.coalesced_ratio":         {ratio(d.coalesced, d.exec.count), "ratio"},
		"queryexec.wire_requests_per_query": {ratio(d.wireCalls, d.exec.count), "ratio"},

		// The generator of an open loop (zero on a closed loop).
		"loadgen.late_ms_max":    {ms(p.lateMax), "ms"},
		"loadgen.backlog_growth": {p.backlogGrowth, "ratio"},

		// hiddendb: Execute replayed on the queries the site served.
		"hiddendb.execute_us.mean": {p.replay.meanUS(), "us"},
	}
	for k, v := range p.tr.metrics(p, acc, jobs) {
		out[k] = v
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// histSum is a histogram's sum (seconds) and count, summed over series.
type histSum struct {
	sum   float64
	count int64
}

func (h histSum) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// daemonSnap is the daemon's exported counters at one instant.
type daemonSnap struct {
	walk, lookup, exec histSum
	fsyncs             float64

	issued, saved, coalesced, wireCalls int64
	entries                             int
}

func (a daemonSnap) minus(b daemonSnap) daemonSnap {
	sub := func(x, y histSum) histSum { return histSum{x.sum - y.sum, x.count - y.count} }
	return daemonSnap{
		walk: sub(a.walk, b.walk), lookup: sub(a.lookup, b.lookup), exec: sub(a.exec, b.exec),
		fsyncs: a.fsyncs - b.fsyncs,
		issued: a.issued - b.issued, saved: a.saved - b.saved,
		coalesced: a.coalesced - b.coalesced, wireCalls: a.wireCalls - b.wireCalls,
		entries: a.entries,
	}
}

// snapshot reads the daemon's /metrics over REST and its host counters.
func (st *stack) snapshot(s *daemonSnap) error {
	text, err := st.rest.metrics()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	*s = daemonSnap{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := parseSample(line)
		if !ok {
			continue
		}
		for _, h := range []struct {
			family string
			into   *histSum
		}{
			{"hdsamplerd_walk_duration_seconds", &s.walk},
			{"hdsamplerd_host_cache_lookup_seconds", &s.lookup},
			{"hdsamplerd_host_exec_latency_seconds", &s.exec},
		} {
			switch name {
			case h.family + "_sum":
				h.into.sum += val
			case h.family + "_count":
				h.into.count += int64(val)
			}
		}
		if name == "hdsamplerd_journal_fsyncs_total" {
			s.fsyncs = val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, h := range st.mgr.Hosts() {
		s.issued += h.Issued
		s.saved += h.Saved()
		s.coalesced += h.Coalesced
		s.wireCalls += h.WireCalls
		s.entries += h.Entries
	}
	return nil
}

// parseSample splits one Prometheus text sample into its metric name
// (labels dropped) and value.
func parseSample(line string) (string, float64, bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", 0, false
	}
	name := line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	return name, v, true
}
