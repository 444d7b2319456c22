package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/webform"
)

// ExecLayer measures the query-execution layer's wire economics: an
// 8-replica raw-walk draw run direct and with single-flight coalescing,
// and an 8-replica count-weighted draw whose sibling sets go out as
// batch requests against the web form's batch endpoint. The interface
// round trip is HDSampler's bottleneck (every drill-down level is one
// HTTP query against a rate-limited site), so the headline number is
// wire requests per logical query — the fraction of the politeness
// budget each configuration burns.
func ExecLayer(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(3000, 20000)
	perWorker := sc.pick(12, 60)
	const workers = 8

	ds := datagen.Vehicles(n, 151)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 500, CountMode: hiddendb.CountExact})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{MaxBatch: 16}))
	defer srv.Close()

	t := &Table{
		ID:      "exec",
		Title:   "query-execution layer: coalescing + sibling-set batching wire savings (8 replicas)",
		Header:  []string{"configuration", "samples", "logical queries", "wire requests", "wire/query", "coalesced", "batched", "wall(ms)"},
		Metrics: map[string]float64{},
	}
	for _, cfg := range []struct {
		name     string
		layer    bool
		weighted bool // count-weighted walks: sibling sets batch
		inflight int
	}{
		{"direct (baseline)", false, false, 0},
		{"+ coalesce", true, false, 0},
		{"count-weighted + batched sibling sets", true, true, 8},
	} {
		api := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
		var conn formclient.Conn = api
		var exec *queryexec.Executor
		if cfg.layer {
			opts := queryexec.Options{MaxBatch: 16}
			if cfg.inflight > 0 {
				opts.Limiter = queryexec.NewLimiter(queryexec.LimiterOptions{MaxInFlight: cfg.inflight})
			}
			exec = queryexec.New(api, opts)
			conn = exec
		}
		if _, err := conn.Schema(ctx); err != nil {
			return nil, err
		}
		req0 := api.Stats().HTTPRequests

		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		var samples int
		var logical int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				seed := 152 + int64(w)*7919
				var gen core.Generator
				var err error
				if cfg.weighted {
					gen, err = core.NewCountWalker(ctx, conn, core.CountWalkerConfig{
						Seed: seed, Order: core.OrderShuffle, UseParentCount: true,
					})
				} else {
					gen, err = core.NewWalker(ctx, conn, core.WalkerConfig{Seed: seed, Order: core.OrderShuffle})
				}
				if err == nil {
					var tuples []hiddendb.Tuple
					tuples, _, err = core.Collect(ctx, gen, nil, perWorker)
					mu.Lock()
					samples += len(tuples)
					logical += gen.GenStats().Queries
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, firstErr)
		}
		wall := time.Since(start)
		wire := api.Stats().HTTPRequests - req0
		perQuery := float64(wire) / float64(logical)
		var coalesced, batched int64
		if exec != nil {
			xs := exec.ExecStats()
			coalesced, batched = xs.Coalesced, xs.Batched
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%d", samples),
			fmt.Sprintf("%d", logical),
			fmt.Sprintf("%d", wire),
			fmtF(perQuery),
			fmt.Sprintf("%d", coalesced),
			fmt.Sprintf("%d", batched),
			fmt.Sprintf("%d", wall.Milliseconds()),
		})
		t.Metrics["wire/query:"+cfg.name] = perQuery
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d behind the web form API, k=500, exact counts, %d replicas × %d samples, no history cache (isolating the layer)", n, workers, perWorker),
		"coalescing collapses identical in-flight queries; a count-weighted level's sibling probes go out as one set, packed into POST /api/search/batch requests, one rate-limit charge per batch wire request")
	return t, nil
}
