package formclient

import (
	"context"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

func TestAPIBatchRoundTrip(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 50, hiddendb.CountExact, webform.Options{})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()

	qs := []hiddendb.Query{
		hiddendb.EmptyQuery(),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2}),
		hiddendb.MustQuery(
			hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2},
			hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1}),
	}
	req0 := conn.Stats().HTTPRequests
	results, err := conn.ExecuteBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	// One schema fetch (first use) plus exactly one batch POST.
	if got := conn.Stats().HTTPRequests - req0; got != 2 {
		t.Fatalf("HTTP requests for a 3-query batch = %d, want 2 (schema + batch)", got)
	}
	if len(results) != len(qs) {
		t.Fatalf("results = %d, want %d", len(results), len(qs))
	}
	for i, q := range qs {
		want, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow || got.Count != want.Count {
			t.Fatalf("query %d: %d tuples overflow=%v count=%d, want %d/%v/%d",
				i, len(got.Tuples), got.Overflow, got.Count, len(want.Tuples), want.Overflow, want.Count)
		}
		for j := range got.Tuples {
			if got.Tuples[j].ID != want.Tuples[j].ID {
				t.Fatalf("query %d row %d: ID %d, want %d", i, j, got.Tuples[j].ID, want.Tuples[j].ID)
			}
		}
	}
}

// TestAPIBatchSplitsLargeSets: a set larger than the web form's batch
// limit goes out as several batch requests, answered in order.
func TestAPIBatchSplitsLargeSets(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 50, hiddendb.CountExact, webform.Options{})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	if _, err := conn.Schema(ctx); err != nil {
		t.Fatal(err)
	}
	qs := make([]hiddendb.Query, db.Schema().DomainSize(datagen.VehAttrModel))
	for v := range qs {
		qs[v] = hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrModel, Value: v})
	}
	req0 := conn.Stats().HTTPRequests
	results, err := conn.ExecuteBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := conn.Stats().HTTPRequests-req0, int64((len(qs)+maxBatch-1)/maxBatch); got != want {
		t.Fatalf("%d queries took %d batch requests, want %d", len(qs), got, want)
	}
	for i, q := range qs {
		want, _ := db.Execute(q)
		if results[i].Count != want.Count || len(results[i].Tuples) != len(want.Tuples) {
			t.Fatalf("query %d: count %d rows %d, want %d/%d", i, results[i].Count, len(results[i].Tuples), want.Count, len(want.Tuples))
		}
	}
}

func TestAPIBatchSingleRateCharge(t *testing.T) {
	// Rate 1/s with burst 2: two wire requests pass (schema is unmetered,
	// search endpoints are), so a 5-query batch succeeds where 5 separate
	// queries would be throttled.
	_, srv := vehiclesServer(t, 200, 50, hiddendb.CountNone, webform.Options{RatePerSec: 1, Burst: 2})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client(), MaxRetries: 1, Sleep: noSleep})
	ctx := context.Background()
	if _, err := conn.Schema(ctx); err != nil {
		t.Fatal(err)
	}
	qs := make([]hiddendb.Query, 5)
	for i := range qs {
		qs[i] = hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: i})
	}
	if _, err := conn.ExecuteBatch(ctx, qs); err != nil {
		t.Fatalf("batch within one charge failed: %v", err)
	}
	if retries := conn.Stats().RateLimitRetries; retries != 0 {
		t.Fatalf("batch was rate limited %d times despite a single charge", retries)
	}
}

func TestAPIBatchOversizedRejected(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 50, hiddendb.CountNone, webform.Options{MaxBatch: 2})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client(), MaxRetries: 1, Sleep: noSleep})
	ctx := context.Background()
	qs := make([]hiddendb.Query, 3)
	for i := range qs {
		qs[i] = hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: i})
	}
	_, err := conn.ExecuteBatch(ctx, qs)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized batch error = %v, want the server's limit message", err)
	}
}

func TestAPIBatchValidatesQueries(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 50, hiddendb.CountNone, webform.Options{})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client(), MaxRetries: 1, Sleep: noSleep})
	ctx := context.Background()
	bad := []hiddendb.Query{hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 99999})}
	if _, err := conn.ExecuteBatch(ctx, bad); err == nil {
		t.Fatal("out-of-domain batch query passed client validation")
	}
}

// TestBatchPolitenessShared makes sure batch POSTs run through the same
// politeness/retry machinery as every other request.
func TestBatchPolitenessShared(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 50, hiddendb.CountNone, webform.Options{})
	var sleeps int
	conn := NewAPI(srv.URL, HTTPOptions{
		Client:     srv.Client(),
		Politeness: 5 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if d == 5*time.Millisecond {
				sleeps++
			}
			return ctx.Err()
		},
	})
	ctx := context.Background()
	if _, err := conn.Schema(ctx); err != nil { // first request: no delay
		t.Fatal(err)
	}
	qs := []hiddendb.Query{
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0}),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1}),
	}
	if _, err := conn.ExecuteBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}
	if sleeps != 1 {
		t.Fatalf("batch POST slept %d politeness delays, want 1", sleeps)
	}
}
