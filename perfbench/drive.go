package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hdsampler/internal/jobsvc"
)

// jobRecord is one job of a timed phase, as the REST client saw it.
type jobRecord struct {
	id     string
	n      int
	start  time.Time     // submit time (closed loop) or due time (open loop)
	submit time.Duration // POST /jobs wall time
	view   jobsvc.View   // terminal view
	body   []byte        // GET /jobs/{id}/samples
	err    error         // REST error or failed check
}

// ok reports a job that completed with exactly its n checked samples.
func (r *jobRecord) ok() bool { return r.err == nil }

// latency is submit (or due) to terminal state, from the daemon's own
// finish timestamp so polling granularity does not enter it.
func (r *jobRecord) latency() time.Duration {
	if r.view.Finished == nil {
		return 0
	}
	return r.view.Finished.Sub(r.start)
}

// phase is one timed run of a workload on one set-up.
type phase struct {
	setups []time.Duration
	jobs   []*jobRecord

	wall, cpu   time.Duration
	allocBytes  uint64
	peakLive    uint64
	wireQueries int64
	accepted    int64
	aborted     int64

	// Open-loop honesty: the generator's worst lateness and how the
	// backlog of unfinished jobs grew over the schedule.
	lateMax       time.Duration
	backlogGrowth float64

	// Daemon-side counters before and after the timer (traced runs).
	before, after daemonSnap
	tr            *tracer
	replay        replayStats

	checkErrs []string
}

func (p *phase) correct() bool { return len(p.checkErrs) == 0 }

func (p *phase) failedJobs() int {
	n := 0
	for _, r := range p.jobs {
		if !r.ok() {
			n++
		}
	}
	return n
}

func (p *phase) msPerSample() float64 {
	return float64(p.wall) / 1e6 / float64(max(p.accepted, 1))
}

func (p *phase) report(ms map[string]metric) *report {
	return &report{
		Correct:   p.correct(),
		Attempted: max(len(p.jobs), 1),
		Failed:    p.failedJobs(),
		Metrics:   ms,
	}
}

// measure sets the workload up (setups times, keeping the last), runs
// its timed phase and checks every answer.
func measure(w workload, o options, dur time.Duration, traced bool, setups int) (*phase, error) {
	warm := w.warmJobs
	if o.smoke {
		warm = min(warm, 2)
	}
	p := &phase{}
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = newStack(w, o.seed, o.workDir, traced, warm); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
	}
	defer st.close()

	if err := st.rest.ready(); err != nil {
		return nil, err
	}
	runtime.GC()
	if traced {
		st.tr.reset()
		if err := st.snapshot(&p.before); err != nil {
			return nil, err
		}
	}
	wire0 := st.db.QueriesServed()
	aborted0 := st.aborted.Load()
	cpu0 := cpuTime()
	alloc0 := allocBytes()
	stopPeak, peak := samplePeakLive()
	start := time.Now()
	if w.clients > 0 {
		p.jobs = closedLoop(st, w, o, start, dur)
	} else {
		p.jobs, p.lateMax, p.backlogGrowth = openLoop(st, w, o, start, dur)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.allocBytes = allocBytes() - alloc0
	p.wireQueries = st.db.QueriesServed() - wire0
	p.aborted = st.aborted.Load() - aborted0
	stopPeak()
	p.peakLive = *peak
	if traced {
		if err := st.snapshot(&p.after); err != nil {
			return nil, err
		}
		p.tr = st.tr
	}

	// Everything below runs after the timer.
	ck := newChecker(st.db, w.skew)
	for _, r := range p.jobs {
		if r.err == nil {
			r.err = ck.job(r)
		}
		if r.err != nil {
			p.checkErrs = append(p.checkErrs, fmt.Sprintf("job %s: %v", r.id, r.err))
			continue
		}
		p.accepted += int64(r.n)
	}
	if err := ck.marginals(); err != nil {
		p.checkErrs = append(p.checkErrs, err.Error())
	}
	if traced {
		p.replay = st.tr.replay(st.db)
		if p.replay.errors > 0 {
			p.checkErrs = append(p.checkErrs, fmt.Sprintf("replay: %d of the site's queries did not replay", p.replay.errors))
		}
		if err := reconcile(w, p); err != nil {
			p.checkErrs = append(p.checkErrs, err.Error())
		}
	}
	for i, e := range p.checkErrs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: ... and %d more\n", len(p.checkErrs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%v: %d jobs (%d failed), %d samples in %.2fs\n",
		w.name, traced, len(p.jobs), p.failedJobs(), p.accepted, p.wall.Seconds())
	return p, nil
}

// runJob submits one job, waits for it and fetches its samples.
func (st *stack) runJob(w workload, seed int64) *jobRecord {
	spec := w.spec
	spec.URL = st.siteURL
	spec.Seed = seed
	r := &jobRecord{n: spec.N, start: time.Now()}
	r.id, r.submit, r.err = st.rest.submit(spec)
	if r.err != nil {
		return r
	}
	r.view, r.err = st.rest.wait(r.id)
	if r.err == nil {
		st.fetch(r)
	}
	return r
}

// fetch reads a terminal job's samples, or records why it failed.
func (st *stack) fetch(r *jobRecord) {
	if r.view.State != jobsvc.StateCompleted {
		r.err = fmt.Errorf("ended %s: %s", r.view.State, r.view.Error)
		return
	}
	r.body, r.err = st.rest.samples(r.id)
}

// maxOverrun bounds how long a phase may run past --seconds while it
// finishes its jobs.
const maxOverrun = 90 * time.Second

// jobCount is the number of jobs in a run of dur.
func jobCount(w workload, o options, dur time.Duration) int {
	n := int(w.rate * dur.Seconds())
	if !o.smoke {
		n = max(n, minJobs)
	}
	return max(n, 1)
}

// closedLoop runs w.clients clients, each submitting its next job when
// the previous one has finished, until the run's jobs are done.
func closedLoop(st *stack, w workload, o options, start time.Time, dur time.Duration) []*jobRecord {
	total := int64(jobCount(w, o, dur))
	var (
		mu   sync.Mutex
		jobs []*jobRecord
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total || time.Since(start) >= dur+maxOverrun {
					return
				}
				r := st.runJob(w, jobSeed(o.seed, int(i)))
				mu.Lock()
				jobs = append(jobs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs
}

// openLoop submits jobs on a fixed schedule of w.rate per second from one
// generator goroutine, and polls every outstanding job from one poller
// goroutine (the caller's). Each job is timed from its due time.
func openLoop(st *stack, w workload, o options, start time.Time, dur time.Duration) (jobs []*jobRecord, lateMax time.Duration, growth float64) {
	n := jobCount(w, o, dur)
	interval := time.Duration(float64(time.Second) / w.rate)
	// Sized to the number of sends, so the generator never blocks on
	// the poller.
	arrivals := make(chan *jobRecord, n)
	var finished atomic.Int64
	backlog := make([]int64, n)
	go func() {
		defer close(arrivals)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			lateMax = max(lateMax, time.Since(due))
			backlog[i] = int64(i) - finished.Load()
			spec := w.spec
			spec.URL = st.siteURL
			spec.Seed = jobSeed(o.seed, i)
			r := &jobRecord{n: spec.N, start: due}
			r.id, r.submit, r.err = st.rest.submit(spec)
			arrivals <- r
		}
	}()

	var outstanding []*jobRecord
	open := true
	deadline := start.Add(dur + maxOverrun)
	for open || len(outstanding) > 0 {
		for drained := false; open && !drained; {
			select {
			case r, ok := <-arrivals:
				if !ok {
					open = false
					break
				}
				jobs = append(jobs, r)
				if r.err == nil {
					outstanding = append(outstanding, r)
				} else {
					finished.Add(1)
				}
			default:
				drained = true
			}
		}
		keep := outstanding[:0]
		for _, r := range outstanding {
			v, err := st.rest.job(r.id)
			switch {
			case err != nil:
				r.err = err
			case v.State.Terminal():
				r.view = v
				st.fetch(r)
			case time.Now().After(deadline):
				r.err = fmt.Errorf("still %s after the phase deadline", v.State)
			default:
				keep = append(keep, r)
				continue
			}
			finished.Add(1)
		}
		outstanding = keep
		time.Sleep(pollEvery)
	}
	// The generator has closed arrivals, so its writes to lateMax and
	// backlog happen before this read.
	growth = backlogGrowth(backlog)
	if lateMax > 100*time.Millisecond || growth > 3 {
		fmt.Fprintf(os.Stderr, "perfbench: FLAG %s: generator late by up to %v, backlog grew %.1fx over the schedule: the schedule, not the program, may have set the latency\n",
			w.name, lateMax.Round(time.Millisecond), growth)
	}
	return jobs, lateMax, growth
}

// backlogGrowth compares the mean backlog over the last quarter of the
// schedule with the first quarter's (at least one job): near 1 means a
// steady state, well above 1 a queue that keeps growing.
func backlogGrowth(b []int64) float64 {
	q := len(b) / 4
	if q == 0 {
		return 1
	}
	mean := func(xs []int64) float64 {
		s := 0.0
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(b[len(b)-q:]) / max(mean(b[:q]), 1)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// samplePeakLive samples the live heap (as of each GC's mark) every 10ms
// until stop is called; stop returns once the sampler has exited.
func samplePeakLive() (stop func(), peak *uint64) {
	peak = new(uint64)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			*peak = max(*peak, readMetric("/gc/heap/live:bytes"))
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(quit); <-done }, peak
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}
