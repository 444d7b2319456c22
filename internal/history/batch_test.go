package history

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/webform"
)

// The differential check of the set path: on two fresh stacks warmed the
// same way, a count walk's sibling set asked with formclient.ExecuteAll
// must get the same answers as the same queries asked one by one.

// diffKind selects the stack under the cache.
type diffKind uint8

const (
	diffLocal       diffKind = iota // execution layer over a batch-capable Local
	diffBrokenBatch                 // every batch request fails: per-query fallback
	diffBlip                        // every wire interaction blips once: retried
	diffHTML                        // HTML scraping: sets go out one by one
	diffNoCache                     // execution layer over Local, no cache
	numDiffKinds
)

// diffCase is one input: a stack kind, warm-up queries asked one by one
// (the parent base when warmParent, then base ∧ attr=v for each v in
// warm), and the set — base ∧ attr=v for v in 0..dom-2, the siblings a
// count walk probes when it derives the last child from the parent.
type diffCase struct {
	kind       diffKind
	base       []hiddendb.Predicate
	attr       int
	warmParent bool
	warm       []int
}

// diffEnv is the target every stack of a check draws from: exact counts,
// so the cache's sibling-count inference engages.
type diffEnv struct {
	db  *hiddendb.DB
	srv *httptest.Server
}

func newDiffEnv(tb testing.TB) *diffEnv {
	tb.Helper()
	ds := datagen.Vehicles(800, 3)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50, CountMode: hiddendb.CountExact})
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	tb.Cleanup(srv.Close)
	return &diffEnv{db: db, srv: srv}
}

// failBatch answers single queries but fails every batch request.
type failBatch struct{ *formclient.Local }

func (failBatch) ExecuteBatch(context.Context, []hiddendb.Query) ([]*hiddendb.Result, error) {
	return nil, errors.New("batch endpoint down")
}

func noSleep(context.Context, time.Duration) error { return nil }

// stack builds a fresh stack of the given kind.
func (e *diffEnv) stack(kind diffKind) (formclient.Conn, *queryexec.Executor, *Cache) {
	var raw formclient.Conn = formclient.NewLocal(e.db)
	switch kind {
	case diffBrokenBatch:
		raw = failBatch{formclient.NewLocal(e.db)}
	case diffBlip:
		raw = faultform.Wrap(raw, faultform.Profile{Name: "blip", TransientProb: 1}, 1)
	case diffHTML:
		raw = formclient.NewHTTP(e.srv.URL, formclient.HTTPOptions{Client: e.srv.Client()})
	}
	x := queryexec.New(raw, queryexec.Options{MaxBatch: 16, Sleep: noSleep})
	if kind == diffNoCache {
		return x, x, nil
	}
	c := New(x, Options{TrustCounts: true})
	return c, x, c
}

// decode maps fuzz bytes onto a valid case: predicates (attr, value)
// pairs reduced into the schema, attr moved off the base's attributes.
func (e *diffEnv) decode(kind uint8, preds []byte, attr uint8, warmParent bool, warm []byte) diffCase {
	s := e.db.Schema()
	c := diffCase{kind: diffKind(kind % uint8(numDiffKinds)), warmParent: warmParent}
	used := make([]bool, s.NumAttrs())
	for i := 0; i+1 < len(preds) && len(c.base) < 3; i += 2 {
		a := int(preds[i]) % s.NumAttrs()
		if !used[a] {
			used[a] = true
			c.base = append(c.base, hiddendb.Predicate{Attr: a, Value: int(preds[i+1]) % s.DomainSize(a)})
		}
	}
	c.attr = int(attr) % s.NumAttrs()
	for used[c.attr] {
		c.attr = (c.attr + 1) % s.NumAttrs()
	}
	for _, b := range warm {
		c.warm = append(c.warm, int(b)%s.DomainSize(c.attr))
	}
	return c
}

// diffDelta is what the set stack's layers did while answering the set.
type diffDelta struct {
	cache Stats
	exec  queryexec.Stats
}

// check runs c on two fresh stacks and fails on any differing answer.
func (e *diffEnv) check(t *testing.T, c diffCase) diffDelta {
	t.Helper()
	ctx := context.Background()
	base := hiddendb.MustQuery(c.base...)
	set := make([]hiddendb.Query, e.db.Schema().DomainSize(c.attr)-1)
	for v := range set {
		set[v] = base.With(c.attr, v)
	}
	warm := func(conn formclient.Conn) {
		if c.warmParent {
			if _, err := conn.Execute(ctx, base); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range c.warm {
			if _, err := conn.Execute(ctx, base.With(c.attr, v)); err != nil {
				t.Fatal(err)
			}
		}
	}

	setConn, x, cache := e.stack(c.kind)
	warm(setConn)
	var d diffDelta
	if cache != nil {
		d.cache = cache.CacheStats()
	}
	d.exec = x.ExecStats()
	got, err := formclient.ExecuteAll(ctx, setConn, set)
	if err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	if cache != nil {
		after := cache.CacheStats()
		d.cache = Stats{
			Issued:    after.Issued - d.cache.Issued,
			ExactHits: after.ExactHits - d.cache.ExactHits,
			Inferred:  after.Inferred - d.cache.Inferred,
		}
	}
	after := x.ExecStats()
	d.exec = queryexec.Stats{
		Queries:          after.Queries - d.exec.Queries,
		Batched:          after.Batched - d.exec.Batched,
		BatchRequests:    after.BatchRequests - d.exec.BatchRequests,
		WireCalls:        after.WireCalls - d.exec.WireCalls,
		TransientRetries: after.TransientRetries - d.exec.TransientRetries,
	}

	oneConn, _, _ := e.stack(c.kind)
	warm(oneConn)
	for i, q := range set {
		want, err := oneConn.Execute(ctx, q)
		if err != nil {
			t.Fatalf("Execute(%v): %v", q, err)
		}
		if !sameAnswer(got[i], want) {
			t.Fatalf("case %+v: member %d (%v): set answer {overflow %v count %d rows %d} != per-query {overflow %v count %d rows %d}",
				c, i, q, got[i].Overflow, got[i].Count, len(got[i].Tuples), want.Overflow, want.Count, len(want.Tuples))
		}
	}
	return d
}

func sameAnswer(a, b *hiddendb.Result) bool {
	if a.Overflow != b.Overflow || a.Count != b.Count || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if a.Tuples[i].ID != b.Tuples[i].ID {
			return false
		}
	}
	return true
}

// emptySibling finds a sibling-count inference case: an overflowing
// parent make=m, an attribute whose value v < dom-1 is empty under it.
// Warming the parent and every other value leaves v to rule 4 alone —
// no complete ancestor of v is cached.
func (e *diffEnv) emptySibling(tb testing.TB) diffCase {
	tb.Helper()
	s := e.db.Schema()
	for m := 0; m < s.DomainSize(datagen.VehAttrMake); m++ {
		parent := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: m})
		if res, _ := e.db.Execute(parent); !res.Overflow {
			continue
		}
		for _, a := range []int{datagen.VehAttrYear, datagen.VehAttrColor, datagen.VehAttrCondition} {
			dom := s.DomainSize(a)
			for v := 0; v < dom-1; v++ {
				if res, _ := e.db.Execute(parent.With(a, v)); res.Count != 0 {
					continue
				}
				c := diffCase{kind: diffLocal, base: parent.Preds(), attr: a, warmParent: true}
				for w := 0; w < dom; w++ {
					if w != v {
						c.warm = append(c.warm, w)
					}
				}
				return c
			}
		}
	}
	tb.Fatal("no overflowing parent with an empty sibling in the dataset")
	return diffCase{}
}

// diffSeed is one seed-corpus case, named by the mechanism it covers.
type diffSeed struct {
	name  string
	c     diffCase
	check func(d diffDelta, members int) bool
}

// diffSeeds covers hits, both inference rules, chunking at MaxBatch, the
// failed-batch fallback, a transient retried as one unit, and the HTML
// sequential fallback.
func (e *diffEnv) diffSeeds(tb testing.TB) []diffSeed {
	make1 := []hiddendb.Predicate{{Attr: datagen.VehAttrMake, Value: 1}}
	allYears := make([]int, e.db.Schema().DomainSize(datagen.VehAttrYear))
	for v := range allYears {
		allYears[v] = v
	}
	// A base narrow enough to answer completely: every member is then
	// inferred from it (rule 2).
	narrow := []hiddendb.Predicate{
		{Attr: datagen.VehAttrMake, Value: 1}, {Attr: datagen.VehAttrModel, Value: 3}, {Attr: datagen.VehAttrCondition, Value: 0},
	}
	if res, _ := e.db.Execute(hiddendb.MustQuery(narrow...)); res.Overflow {
		tb.Fatal("narrow base overflows; tighten it")
	}
	return []diffSeed{
		{"chunks-16-16-15", diffCase{kind: diffLocal, attr: datagen.VehAttrModel},
			func(d diffDelta, n int) bool { return n == 47 && d.exec.BatchRequests == 3 && d.exec.Batched == 47 }},
		{"exact-hits", diffCase{kind: diffLocal, base: make1, attr: datagen.VehAttrYear, warm: allYears},
			func(d diffDelta, n int) bool { return d.cache.ExactHits == int64(n) && d.exec.Queries == 0 }},
		{"ancestor-inference", diffCase{kind: diffLocal, base: narrow, attr: datagen.VehAttrYear, warmParent: true},
			func(d diffDelta, n int) bool { return d.cache.Inferred == int64(n) && d.exec.Queries == 0 }},
		{"sibling-inference", e.emptySibling(tb),
			func(d diffDelta, n int) bool { return d.cache.Inferred == 1 && d.cache.ExactHits == int64(n-1) }},
		{"failed-batch-fallback", diffCase{kind: diffBrokenBatch, base: make1, attr: datagen.VehAttrYear},
			func(d diffDelta, n int) bool {
				return d.exec.BatchRequests == 1 && d.exec.Batched == 0 && d.exec.WireCalls == int64(1+n)
			}},
		{"transient-retried-as-unit", diffCase{kind: diffBlip, base: make1, attr: datagen.VehAttrYear},
			func(d diffDelta, n int) bool {
				return d.exec.TransientRetries == 1 && d.exec.BatchRequests == 2 && d.exec.Batched == int64(n)
			}},
		{"html-sequential", diffCase{kind: diffHTML, base: make1, attr: datagen.VehAttrYear},
			func(d diffDelta, n int) bool { return d.exec.BatchRequests == 0 && d.exec.WireCalls == int64(n) }},
		{"no-cache", diffCase{kind: diffNoCache, attr: datagen.VehAttrColor},
			func(d diffDelta, n int) bool { return d.exec.Batched == int64(n) }},
	}
}

// encode turns a case back into fuzz arguments (decode's inverse for
// in-range cases).
func (c diffCase) encode() (uint8, []byte, uint8, bool, []byte) {
	var preds, warm []byte
	for _, p := range c.base {
		preds = append(preds, byte(p.Attr), byte(p.Value))
	}
	for _, v := range c.warm {
		warm = append(warm, byte(v))
	}
	return uint8(c.kind), preds, uint8(c.attr), c.warmParent, warm
}

// FuzzExecuteAllMatchesExecute is the differential check: any sibling
// set, on any stack kind, after any warm-up, answers as per-query
// Execute does. Its seed corpus runs with the ordinary tests.
func FuzzExecuteAllMatchesExecute(f *testing.F) {
	env := newDiffEnv(f)
	for _, s := range env.diffSeeds(f) {
		kind, preds, attr, warmParent, warm := s.c.encode()
		f.Add(kind, preds, attr, warmParent, warm)
	}
	f.Fuzz(func(t *testing.T, kind uint8, preds []byte, attr uint8, warmParent bool, warm []byte) {
		env.check(t, env.decode(kind, preds, attr, warmParent, warm))
	})
}

// TestExecuteAllSeedsCoverEachPath pins what each seed exercises, so the
// differential check cannot silently stop covering a path.
func TestExecuteAllSeedsCoverEachPath(t *testing.T) {
	env := newDiffEnv(t)
	for _, s := range env.diffSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			c := env.decode(s.c.encode())
			d := env.check(t, c)
			members := env.db.Schema().DomainSize(c.attr) - 1
			if !s.check(d, members) {
				t.Fatalf("%d members: cache %+v, exec %+v", members, d.cache, d.exec)
			}
		})
	}
}
