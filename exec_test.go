package hdsampler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// countingTarget serves a vehicles DB behind the web form, counting every
// wire request the samplers actually land on the site.
func countingTarget(t *testing.T, n, k int, counts hiddendb.CountMode, opts webform.Options) (*hiddendb.DB, *httptest.Server, *atomic.Int64) {
	t.Helper()
	ds := datagen.Vehicles(n, 31)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: counts})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	inner := webform.NewServer(db, opts)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return db, srv, &hits
}

// TestDrawParallelExecSavesWireRequests is the tentpole acceptance check:
// an 8-replica count-weighted draw routed through the execution layer
// issues measurably fewer wire requests than the replicas' combined
// logical query bill — each level's sibling probes go out as batch
// requests, on top of (and independent of) the history cache, which is
// disabled here to isolate the layer.
func TestDrawParallelExecSavesWireRequests(t *testing.T) {
	_, srv, hits := countingTarget(t, 2000, 250, hiddendb.CountExact, webform.Options{})
	conn := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
	cfg := Config{
		Method:         MethodCountWeighted,
		UseParentCount: true,
		Seed:           3,
		ShuffleOrder:   true,
		Exec: ExecConfig{
			MaxBatch:    16,
			MaxInFlight: 8,
		},
	}
	tuples, stats, err := DrawParallel(context.Background(), conn, cfg, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 64 {
		t.Fatalf("drew %d tuples, want 64", len(tuples))
	}
	logical := stats.Queries
	wire := hits.Load() - 1 // minus the schema fetch
	if logical == 0 {
		t.Fatal("no queries recorded")
	}
	// The baseline bill is one wire request per logical query. With
	// batched sibling sets the stream must compress; the 10% margin is
	// the bound this check has always held the layer to.
	if wire > logical*9/10 {
		t.Fatalf("wire requests = %d for %d logical queries; execution layer saved nothing", wire, logical)
	}
	if stats.QueriesCoalesced+stats.QueriesBatched == 0 {
		t.Fatal("stats report neither coalesced nor batched queries")
	}
}

// TestDrawParallelAggregateRateBounded proves the politeness guarantee:
// 8 concurrent replicas sharing one execution layer together respect the
// configured per-host budget, where the old per-goroutine sleep allowed
// N× the configured rate.
func TestDrawParallelAggregateRateBounded(t *testing.T) {
	const rate, burst = 300.0, 5
	_, srv, hits := countingTarget(t, 1000, 150, hiddendb.CountNone, webform.Options{})
	conn := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
	cfg := Config{
		Seed:         4,
		ShuffleOrder: true,
		Exec:         ExecConfig{RatePerSec: rate, Burst: burst},
	}
	start := time.Now()
	_, _, err := DrawParallel(context.Background(), conn, cfg, 32, 8)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	wire := hits.Load()
	if wire <= burst {
		t.Skipf("only %d wire requests; nothing to pace", wire)
	}
	minWall := time.Duration(float64(wire-burst) / rate * float64(time.Second))
	// Half-slack absorbs timer coarseness; without the shared limiter the
	// draw finishes an order of magnitude faster than minWall.
	if elapsed < minWall/2 {
		t.Fatalf("%d wire requests in %v: aggregate rate %.0f/s blows the %g/s budget",
			wire, elapsed, float64(wire)/elapsed.Seconds(), rate)
	}
}

// TestReplicaSetExecStats covers the layer's wiring and stat plumbing
// over a local connector (batch-capable, so count-weighted sibling sets
// batch).
func TestReplicaSetExecStats(t *testing.T) {
	ds := datagen.Vehicles(1500, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 200, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewReplicaSet(context.Background(), LocalConn(db), Config{
		Method: MethodCountWeighted, UseParentCount: true,
		Seed: 11, ShuffleOrder: true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Draw(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	xs, ok := rs.ExecStats()
	if !ok {
		t.Fatal("ReplicaSet built without the execution layer")
	}
	if xs.Queries == 0 {
		t.Fatal("executor saw no queries")
	}
	if xs.WireCalls > xs.Queries {
		t.Fatalf("wire calls %d exceed logical queries %d", xs.WireCalls, xs.Queries)
	}
	if xs.Batched == 0 || xs.BatchRequests == 0 {
		t.Fatalf("no sibling set went out batched: %+v", xs)
	}
}

// TestSliderZeroExplicit is the satellite regression: Config{Slider: 0,
// SliderSet: true} must select the documented lowest-skew walk (an active
// rejector, C < 1) instead of silently flipping to the accept-everything
// default — while the zero-value Config keeps meaning "fastest".
func TestSliderZeroExplicit(t *testing.T) {
	ds := datagen.Vehicles(500, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	fastest, err := New(ctx, LocalConn(db), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := fastest.C(); c != 1 {
		t.Fatalf("zero-value Config C = %g, want 1 (fastest)", c)
	}

	lowSkew, err := New(ctx, LocalConn(db), Config{Seed: 1, Slider: 0, SliderSet: true, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c := lowSkew.C(); c >= 1 || c <= 0 {
		t.Fatalf("explicit Slider: 0 C = %g, want the lowest-skew target in (0,1)", c)
	}

	halfway, err := New(ctx, LocalConn(db), Config{Seed: 1, Slider: 0.5, SliderSet: true, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if lowSkew.C() >= halfway.C() {
		t.Fatalf("slider ordering broken: C(0)=%g >= C(0.5)=%g", lowSkew.C(), halfway.C())
	}
}

// TestSingleSamplerTransientRetryKnob pins that an explicit
// TransientRetries budget alone wires a lone Sampler through the
// execution layer: a one-blip interface must cost a retry, not the draw.
func TestSingleSamplerTransientRetryKnob(t *testing.T) {
	ds := datagen.IIDBoolean(5, 200, 0.5, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn := &oneBlipConn{inner: formclient.NewLocal(db)}
	s, err := New(context.Background(), conn, Config{Seed: 4, Exec: ExecConfig{TransientRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, err := s.Draw(context.Background(), 10)
	if err != nil {
		t.Fatalf("Draw through a transient blip: %v", err)
	}
	if len(tuples) != 10 {
		t.Fatalf("drew %d of 10 samples", len(tuples))
	}
	xs, ok := s.ExecStats()
	if !ok {
		t.Fatal("TransientRetries knob did not wire the execution layer")
	}
	if xs.TransientRetries != 1 {
		t.Fatalf("TransientRetries = %d, want 1", xs.TransientRetries)
	}
	if !conn.blipped.Load() {
		t.Fatal("test conn never blipped")
	}
}

// TestSamplerStatsCountExecRetries pins that a lone Sampler reports the
// execution layer's retries in its Stats, as a one-replica ReplicaSet on
// the same interface does: both Draw and DrawWeighted count them over
// the call.
func TestSamplerStatsCountExecRetries(t *testing.T) {
	ds := datagen.IIDBoolean(5, 200, 0.5, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{Seed: 4, Exec: ExecConfig{TransientRetries: 2}}
	newConn := func() Conn { return &firstCallBlipConn{inner: formclient.NewLocal(db)} }

	s, err := New(ctx, newConn(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Draw(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := s.ExecStats()
	if st.QueriesRetried == 0 || st.QueriesRetried != xs.TransientRetries {
		t.Fatalf("Draw QueriesRetried = %d, execution layer retried %d", st.QueriesRetried, xs.TransientRetries)
	}
	_, wst, err := s.DrawWeighted(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	xs2, _ := s.ExecStats()
	if wst.QueriesRetried == 0 || wst.QueriesRetried != xs2.TransientRetries-xs.TransientRetries {
		t.Fatalf("DrawWeighted QueriesRetried = %d, execution layer retried %d during it",
			wst.QueriesRetried, xs2.TransientRetries-xs.TransientRetries)
	}

	rs, err := NewReplicaSet(ctx, newConn(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rst, err := rs.Draw(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rst.QueriesRetried != st.QueriesRetried {
		t.Fatalf("ReplicaSet QueriesRetried = %d, Sampler %d on the same interface", rst.QueriesRetried, st.QueriesRetried)
	}
}

// firstCallBlipConn fails each distinct query's first Execute with a
// transient fault.
type firstCallBlipConn struct {
	inner formclient.Conn
	seen  sync.Map
}

func (c *firstCallBlipConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return c.inner.Schema(ctx)
}

func (c *firstCallBlipConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if _, loaded := c.seen.LoadOrStore(q.Key(), true); !loaded {
		return nil, formclient.ErrTransient
	}
	return c.inner.Execute(ctx, q)
}

func (c *firstCallBlipConn) Stats() formclient.Stats { return c.inner.Stats() }

// oneBlipConn fails exactly one Execute with a transient fault.
type oneBlipConn struct {
	inner   formclient.Conn
	blipped atomic.Bool
}

func (c *oneBlipConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return c.inner.Schema(ctx)
}

func (c *oneBlipConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if c.blipped.CompareAndSwap(false, true) {
		return nil, formclient.ErrTransient
	}
	return c.inner.Execute(ctx, q)
}

func (c *oneBlipConn) Stats() formclient.Stats { return c.inner.Stats() }
