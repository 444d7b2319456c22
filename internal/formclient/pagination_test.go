package formclient

import (
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

func TestHTTPSkipsOverflowPagesByDefault(t *testing.T) {
	_, srv := vehiclesServer(t, 600, 120, hiddendb.CountExact,
		webform.Options{PageSize: 50})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	got, err := conn.Execute(ctx, hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Overflow {
		t.Fatal("want overflow")
	}
	// Only the first page's rows arrive; the overflow flag is what the
	// drill-down actually consumes.
	if len(got.Tuples) != 50 {
		t.Fatalf("rows = %d, want first page only (50)", len(got.Tuples))
	}
	if st := conn.Stats(); st.HTTPRequests != 2 {
		t.Fatalf("HTTP requests = %d, want 2 (form + page 1)", st.HTTPRequests)
	}
}

// TestHTTPPaginationMatchesDirectForNarrowQueries pins that a valid
// (non-overflowing) answer split across pages is assembled completely,
// in rank order, as one logical query: the form page plus one request
// per result page.
func TestHTTPPaginationMatchesDirectForNarrowQueries(t *testing.T) {
	const pageSize = 7
	db, srv := vehiclesServer(t, 600, 120, hiddendb.CountExact,
		webform.Options{PageSize: pageSize})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})
	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Overflow || len(want.Tuples) <= pageSize {
		t.Fatalf("query answers %d rows (overflow %v); want a valid multi-page answer", len(want.Tuples), want.Overflow)
	}
	got, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("rows = %d, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("row %d: id %d, want %d", i, got.Tuples[i].ID, want.Tuples[i].ID)
		}
		for a := range want.Tuples[i].Vals {
			if got.Tuples[i].Vals[a] != want.Tuples[i].Vals[a] {
				t.Fatal("cell mismatch across pagination")
			}
		}
	}
	if got.Overflow != want.Overflow || got.Count != want.Count {
		t.Fatalf("meta mismatch: overflow %v count %d, want %v %d", got.Overflow, got.Count, want.Overflow, want.Count)
	}
	st := conn.Stats()
	pages := (len(want.Tuples) + pageSize - 1) / pageSize
	if st.Queries != 1 || st.HTTPRequests != int64(1+pages) {
		t.Fatalf("queries = %d, HTTP requests = %d; want 1 query over form + %d pages", st.Queries, st.HTTPRequests, pages)
	}
}

func TestSamplingThroughPaginatedSite(t *testing.T) {
	// End to end: the sampler stack works unchanged against a paginated
	// site; only the HTTP request count grows.
	_, srv := vehiclesServer(t, 400, 60, hiddendb.CountNone,
		webform.Options{PageSize: 25})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	schema, err := conn.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumAttrs() != 10 {
		t.Fatalf("attrs = %d", schema.NumAttrs())
	}
	res, err := conn.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Overflow answers stop at the first page by default (25 rows); the
	// flag itself is intact.
	if res.Overflow && len(res.Tuples) != 25 {
		t.Fatalf("overflow rows = %d, want one page (25)", len(res.Tuples))
	}
	if conn.Stats().HTTPRequests <= conn.Stats().Queries {
		t.Error("pagination should cost extra HTTP requests")
	}
}
