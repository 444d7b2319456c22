package queryexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

func noSleep(context.Context, time.Duration) error { return nil }

// blippyConn fails the first `fail` Executes of each query key with a
// transient fault, then answers.
type blippyConn struct {
	*formclient.Local
	fail     int
	mu       sync.Mutex
	attempts map[string]int
	faults   atomic.Int64
}

func newBlippy(db *hiddendb.DB, fail int) *blippyConn {
	return &blippyConn{
		Local:    formclient.NewLocal(db),
		fail:     fail,
		attempts: make(map[string]int),
	}
}

func (b *blippyConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	b.mu.Lock()
	b.attempts[q.Key()]++
	n := b.attempts[q.Key()]
	b.mu.Unlock()
	if n <= b.fail {
		b.faults.Add(1)
		return nil, fmt.Errorf("%w: blip", formclient.ErrTransient)
	}
	return b.Local.Execute(ctx, q)
}

func TestTransientRetryRecoversBlips(t *testing.T) {
	db := testDB(t, 300)
	inner := newBlippy(db, 2)
	x := New(inner, Options{TransientRetries: 2, Sleep: noSleep})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	res, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute after blips: %v", err)
	}
	want, _ := db.Execute(q)
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("got %d tuples, want %d", len(res.Tuples), len(want.Tuples))
	}
	st := x.ExecStats()
	if st.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", st.TransientRetries)
	}
	if st.WireCalls != 3 {
		t.Fatalf("WireCalls = %d, want 3", st.WireCalls)
	}
}

func TestTransientRetryBudgetExhausts(t *testing.T) {
	db := testDB(t, 300)
	inner := newBlippy(db, 100) // blips forever
	x := New(inner, Options{TransientRetries: 2, Sleep: noSleep})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	_, err := x.Execute(context.Background(), q)
	if !errors.Is(err, formclient.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if st := x.ExecStats(); st.WireCalls != 3 {
		t.Fatalf("WireCalls = %d, want 3 (1 + 2 retries)", st.WireCalls)
	}
}

func TestTransientRetryDisabled(t *testing.T) {
	db := testDB(t, 300)
	inner := newBlippy(db, 1)
	x := New(inner, Options{TransientRetries: -1, Sleep: noSleep})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	if _, err := x.Execute(context.Background(), q); !errors.Is(err, formclient.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient with retries disabled", err)
	}
}

// blippyBatchConn blips whole batch requests before letting them through,
// exercising the batch-as-a-unit retry.
type blippyBatchConn struct {
	*blippyConn
	batchFails atomic.Int64
	maxFails   int64
	batches    atomic.Int64
}

func (b *blippyBatchConn) ExecuteBatch(ctx context.Context, qs []hiddendb.Query) ([]*hiddendb.Result, error) {
	if b.batchFails.Add(1) <= b.maxFails {
		return nil, fmt.Errorf("%w: batch blip", formclient.ErrTransient)
	}
	b.batches.Add(1)
	return b.Local.ExecuteBatch(ctx, qs)
}

func TestBatchTransientRetryBeforeFallback(t *testing.T) {
	db := testDB(t, 300)
	inner := &blippyBatchConn{blippyConn: newBlippy(db, 0), maxFails: 1}
	x := New(inner, Options{MaxBatch: 4, TransientRetries: 2, Sleep: noSleep})
	qs := []hiddendb.Query{
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0}),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1}),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2}),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 3}),
	}
	if _, err := x.ExecuteBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	st := x.ExecStats()
	// The first batch wire request blipped; the retry succeeded as a
	// batch — queries must NOT have fallen back to unbatched execution.
	if st.Batched != int64(len(qs)) {
		t.Fatalf("Batched = %d, want %d (no unbatched fallback)", st.Batched, len(qs))
	}
	if st.BatchRequests != 2 {
		t.Fatalf("BatchRequests = %d, want 2 (original + retry)", st.BatchRequests)
	}
	if st.TransientRetries != 1 {
		t.Fatalf("TransientRetries = %d, want 1", st.TransientRetries)
	}
}
