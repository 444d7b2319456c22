package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
)

func TestCrawlerExtractsEverything(t *testing.T) {
	ds := datagen.IIDBoolean(8, 120, 0.5, 7)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := NewCrawler(ctx, formclient.NewLocal(db), CrawlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// m=8, n=120, k=10: cells hold few duplicates, so everything with an
	// occupied count <= k at full depth is reachable. Verify exact set
	// equality by ID.
	var ids []int
	for _, tu := range tuples {
		ids = append(ids, tu.ID)
	}
	sort.Ints(ids)
	if len(ids) != db.Size() {
		t.Fatalf("crawled %d tuples, database has %d", len(ids), db.Size())
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("missing/duplicate tuple: ids[%d] = %d", i, id)
		}
	}
	if c.Queries() == 0 {
		t.Fatal("no queries counted")
	}
}

func TestCrawlerRespectsBudget(t *testing.T) {
	ds := datagen.IIDBoolean(10, 300, 0.5, 8)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := NewCrawler(ctx, formclient.NewLocal(db), CrawlerConfig{MaxQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); !errors.Is(err, ErrCrawlBudget) {
		t.Fatalf("want ErrCrawlBudget, got %v", err)
	}
	if c.Queries() > 20 {
		t.Fatalf("crawler issued %d queries past its budget", c.Queries())
	}
}

func TestCrawlerCostExceedsSampling(t *testing.T) {
	// The paper's argument: a crawl costs far more than the handful of
	// samples an aggregate needs. That holds when k is small relative to
	// n (the realistic regime — MSN Stock Screener used k = 25): crawl
	// cost grows like n/k · depth while sampling cost is independent of n.
	ds := datagen.Vehicles(20000, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	crawler, err := NewCrawler(ctx, formclient.NewLocal(db), CrawlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crawler.Run(ctx); err != nil {
		t.Fatal(err)
	}

	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 10, Order: OrderShuffle})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Collect(ctx, w, nil, 100); err != nil {
		t.Fatal(err)
	}
	if crawler.Queries() <= 3*w.GenStats().Queries {
		t.Fatalf("crawl (%d queries) should dwarf 100 samples (%d queries)",
			crawler.Queries(), w.GenStats().Queries)
	}
}

func TestCrawlerScoped(t *testing.T) {
	ds := datagen.Vehicles(300, 10)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Scoped to make+condition: 36 leaf queries at most.
	c, err := NewCrawler(ctx, formclient.NewLocal(db),
		CrawlerConfig{Attrs: []int{datagen.VehAttrMake, datagen.VehAttrCondition}})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Only cells with <= k rows are fully extracted; with n=300 over 36
	// cells most hold <= 50, so coverage should be high but counted
	// honestly.
	if len(tuples) == 0 || len(tuples) > db.Size() {
		t.Fatalf("crawled %d of %d", len(tuples), db.Size())
	}
	seen := map[int]bool{}
	for _, tu := range tuples {
		if seen[tu.ID] {
			t.Fatalf("duplicate tuple %d in crawl output", tu.ID)
		}
		seen[tu.ID] = true
	}
}

// countingLocal counts every query that reaches the database, whether
// asked alone or inside a batch.
type countingLocal struct {
	*formclient.Local
	seen atomic.Int64
}

func (c *countingLocal) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	c.seen.Add(1)
	return c.Local.Execute(ctx, q)
}

func (c *countingLocal) ExecuteBatch(ctx context.Context, qs []hiddendb.Query) ([]*hiddendb.Result, error) {
	c.seen.Add(int64(len(qs)))
	return c.Local.ExecuteBatch(ctx, qs)
}

func crawlIDs(t *testing.T, conn formclient.Conn, cfg CrawlerConfig) ([]int, int64, error) {
	t.Helper()
	ctx := context.Background()
	c, err := NewCrawler(ctx, conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := c.Run(ctx)
	ids := make([]int, len(tuples))
	for i := range tuples {
		ids[i] = tuples[i].ID
	}
	sort.Ints(ids)
	return ids, c.Queries(), err
}

// TestCrawlerSiblingSetsMatchSequential: asking a node's children as one
// set through the execution layer extracts the same tuples with the same
// query count as asking them one by one, in fewer wire calls.
func TestCrawlerSiblingSetsMatchSequential(t *testing.T) {
	ds := datagen.Vehicles(1500, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	cfg := CrawlerConfig{Attrs: []int{datagen.VehAttrMake, datagen.VehAttrCondition, datagen.VehAttrYear}}
	seqIDs, seqQueries, err := crawlIDs(t, struct{ formclient.Conn }{formclient.NewLocal(db)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := queryexec.New(formclient.NewLocal(db), queryexec.Options{})
	setIDs, setQueries, err := crawlIDs(t, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seqIDs, setIDs) {
		t.Fatalf("set crawl extracted %d tuples, sequential %d (or different ones)", len(setIDs), len(seqIDs))
	}
	if setQueries != seqQueries {
		t.Fatalf("set crawl asked %d queries, sequential %d", setQueries, seqQueries)
	}
	if st := x.ExecStats(); st.Queries != seqQueries || st.WireCalls >= seqQueries {
		t.Fatalf("exec stats %+v: want %d queries in fewer wire calls", st, seqQueries)
	}
}

// TestCrawlerBudgetTrimsSets: a children set is cut to what is left of
// MaxQueries, so the crawl spends its budget exactly, no query past it
// reaches the target, and the crawl still ends in ErrCrawlBudget.
func TestCrawlerBudgetTrimsSets(t *testing.T) {
	ds := datagen.Vehicles(1500, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	target := &countingLocal{Local: formclient.NewLocal(db)}
	const budget = 50
	_, queries, err := crawlIDs(t, queryexec.New(target, queryexec.Options{}), CrawlerConfig{MaxQueries: budget})
	if !errors.Is(err, ErrCrawlBudget) {
		t.Fatalf("want ErrCrawlBudget, got %v", err)
	}
	if queries != budget || target.seen.Load() != budget {
		t.Fatalf("crawler counted %d queries and the target saw %d, want both = budget %d", queries, target.seen.Load(), budget)
	}
}
