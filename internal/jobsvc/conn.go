package jobsvc

import (
	"context"
	"fmt"
	"sync/atomic"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// budgetConn enforces one job's MaxQueries: it counts the queries the
// job's samplers issue (the same number Stats.Queries reports — history
// hits included, since the budget bounds the job's work, not just its
// network bill) and fails the job once the budget is spent.
type budgetConn struct {
	inner  formclient.Conn
	budget int64
	used   atomic.Int64
}

func (b *budgetConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return b.inner.Schema(ctx)
}

func (b *budgetConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if b.used.Add(1) > b.budget {
		return nil, fmt.Errorf("%w (budget %d)", ErrBudgetExhausted, b.budget)
	}
	return b.inner.Execute(ctx, q)
}

// ExecuteBatch implements formclient.Batcher: the set is charged query
// by query, and a set that would overrun the budget fails whole, so no
// query past MaxQueries reaches the inner conn.
func (b *budgetConn) ExecuteBatch(ctx context.Context, qs []hiddendb.Query) ([]*hiddendb.Result, error) {
	if b.used.Add(int64(len(qs))) > b.budget {
		return nil, fmt.Errorf("%w (budget %d)", ErrBudgetExhausted, b.budget)
	}
	return formclient.ExecuteAll(ctx, b.inner, qs)
}

func (b *budgetConn) Stats() formclient.Stats { return b.inner.Stats() }

var (
	_ formclient.Conn    = (*budgetConn)(nil)
	_ formclient.Batcher = (*budgetConn)(nil)
)
