// Command perfbench is the repository's end-to-end benchmark: a loopback
// job benchmark that prices an accepted sample in wall time, CPU and wire
// queries through the whole stack, hdsamplerd → formclient → webform →
// hiddendb, and attributes that cost per layer.
//
// In one process it stands up two servers on real loopback TCP: a seeded
// datagen.Vehicles database behind webform.NewServer (the site), and a
// jobsvc.Manager behind jobsvc.NewHandler (the daemon), configured like
// cmd/hdsamplerd with its default flags except where a workload says
// otherwise. It drives the workload through the daemon's REST API
// (POST /jobs, poll, GET /jobs/{id}/samples), checks every answer against
// the site's database, and prints one JSON object as the last line of
// standard output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload html-k1000-nohist --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics of an
// untraced run. With --trace 1 the benchmark makes an untraced and a
// traced run of the same workload and seed, and carries the per-layer
// metrics measured at the boundaries the benchmark owns (REST client,
// the daemon's target http.Client, the site's http.Handler, a replay of
// hiddendb.DB.Execute) plus the daemon's own exported counters, together
// with the tracing overhead.
//
// The exit status is non-zero when any output check fails or the run
// cannot be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir receives the run's files (journal, checkpoints);
	// it is created and removed by the run.
	workDir string
	// smoke shortens the run for the benchmark's own tests: one set-up,
	// no job-count floor, a small warm-up.
	smoke bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives the dataset and every job seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "run length in seconds: a run is a workload's job rate times this many jobs (at least 100), sized to take about this long")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics of an untraced run; 1 = per-layer metrics of a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.workDir = filepath.Join(cwd, ".bench_build", fmt.Sprintf("perfbench-run-%d", os.Getpid()))

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run makes the invocation's runs and assembles its report.
func run(o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		setups := 3
		if o.smoke {
			setups = 1
		}
		res, err := measure(w, o, dur, false, setups)
		if err != nil {
			return nil, err
		}
		return res.report(endToEnd(res)), nil
	}
	plain, err := measure(w, o, dur, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := measure(w, o, dur, true, 1)
	if err != nil {
		return nil, err
	}
	ms := perLayer(traced)
	ms["trace.overhead_ratio"] = metric{traced.msPerSample()/plain.msPerSample() - 1, "ratio"}
	rep := traced.report(ms)
	rep.Correct = rep.Correct && plain.correct()
	return rep, nil
}
