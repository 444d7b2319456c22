package hiddendb_test

import (
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// BenchmarkExecuteIntersectBackends times the bitmap posting backend at
// 10M tuples under exact counts (full-intersection mode, where the
// representation matters most) on a two-predicate query. Skipped under
// -short; the nightly workflow runs it at full size. This file is an
// external test package because datagen itself imports hiddendb.
func BenchmarkExecuteIntersectBackends(b *testing.B) {
	b.Run("bitmap-10M", func(b *testing.B) {
		if testing.Short() {
			b.Skip("10M-tuple build skipped under -short")
		}
		ds := datagen.NewHuge(10_000_000, 1).Dataset()
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100, CountMode: hiddendb.CountExact})
		if err != nil {
			b.Fatal(err)
		}
		q := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0}, hiddendb.Predicate{Attr: 1, Value: 0})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Execute(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Count <= 0 {
				b.Fatal("missing exact count")
			}
		}
	})
}
