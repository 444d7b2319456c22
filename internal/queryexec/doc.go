// Package queryexec is the query-execution layer every concurrent sampler
// path routes through on its way to the interface. It attacks the round
// trips the history cache cannot: the cache memoizes *completed* queries,
// but concurrent replicas walking the same top-of-tree prefixes race
// identical in-flight queries past each other and all miss. The layer
// stacks three mechanisms below the cache:
//
//   - Single-flight coalescing: identical in-flight queries (keyed like
//     the history cache, on the canonical Query.Key) collapse into one
//     wire request whose answer fans out to every waiter.
//   - Batch requests for query sets: a caller that asks several distinct
//     queries at once (formclient.ExecuteAll — a count-weighted level's
//     siblings, a crawl node's children) has them sent straight away as
//     batch wire requests of at most MaxBatch queries when the connector
//     supports it (formclient.API against webform's POST
//     /api/search/batch). The server executes a whole batch under a
//     single rate-limit charge, so a batch of b queries costs 1/b of the
//     politeness budget each. Connectors without batch support (HTML
//     scraping) get the set one query at a time — coalescing and
//     limiting still apply. Nothing waits for other callers' queries.
//   - An AIMD adaptive concurrency limiter shared per host: additive
//     increase on clean responses, multiplicative decrease on 429
//     pushback, plus an aggregate rate meter. This replaces the fixed
//     per-goroutine politeness sleep, which never bounded the *aggregate*
//     rate (N replicas each sleeping independently still hit the site at
//     N times the configured pace).
package queryexec
