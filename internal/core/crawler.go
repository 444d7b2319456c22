package core

import (
	"context"
	"errors"
	"fmt"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// ErrCrawlBudget is returned when a crawl exceeds its query budget.
var ErrCrawlBudget = errors.New("core: crawl query budget exhausted")

// CrawlerConfig tunes a full-extraction crawl.
type CrawlerConfig struct {
	// Attrs optionally restricts the crawl to an attribute subset.
	Attrs []int
	// MaxQueries aborts the crawl beyond this many interface queries
	// (0 = unlimited) — real sites cap per-client queries, which is the
	// paper's argument against crawling.
	MaxQueries int64
}

// Crawler exhaustively extracts every reachable tuple by systematically
// expanding the query tree: the "expensive crawl of the entire database"
// the demo's introduction contrasts sampling against. It exists as a
// baseline so the experiments can price a crawl against a sample for the
// same analytical question.
type Crawler struct {
	conn   formclient.Conn
	schema *hiddendb.Schema
	cfg    CrawlerConfig
	attrs  []int
	stats  genCounters
}

// NewCrawler builds a crawler, fetching the schema eagerly.
func NewCrawler(ctx context.Context, conn formclient.Conn, cfg CrawlerConfig) (*Crawler, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	attrs, err := resolveAttrs(schema, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	return &Crawler{conn: conn, schema: schema, cfg: cfg, attrs: attrs}, nil
}

// Queries returns the number of interface queries issued so far.
func (c *Crawler) Queries() int64 { return c.stats.queries.Load() }

// Run extracts every tuple reachable through the interface, deduplicated
// by tuple identity. Tuples hidden beyond the top-k of every query that
// could return them cannot be extracted by any client; they are the same
// rows the samplers cannot reach. A node's children are asked as one set
// (formclient.ExecuteAll), cut to what is left of MaxQueries.
func (c *Crawler) Run(ctx context.Context) ([]hiddendb.Tuple, error) {
	seen := make(map[int]hiddendb.Tuple)
	var anonRows []hiddendb.Tuple // rows without stable IDs are kept as distinct
	budgetErr := fmt.Errorf("%w (budget %d)", ErrCrawlBudget, c.cfg.MaxQueries)
	// crawl asks the sibling set qs, whose queries specify depth
	// attributes, then collects each complete (or fully specified) answer
	// and crawls each other non-empty one's children in turn.
	var crawl func(qs []hiddendb.Query, depth int) error
	crawl = func(qs []hiddendb.Query, depth int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		trimmed := false
		if c.cfg.MaxQueries > 0 {
			if left := c.cfg.MaxQueries - c.stats.queries.Load(); int64(len(qs)) > left {
				qs, trimmed = qs[:max(left, 0)], true
			}
		}
		answers, err := formclient.ExecuteAll(ctx, c.conn, qs)
		if err != nil {
			return err
		}
		c.stats.queries.Add(int64(len(qs)))
		for i, res := range answers {
			if res.Empty() {
				continue
			}
			// A fully specified query that still overflows shows its
			// visible top-k; the rest is unreachable.
			if res.Valid() || depth == len(c.attrs) {
				for _, t := range res.Tuples {
					if t.ID < 0 {
						anonRows = append(anonRows, t.Clone())
					} else if _, ok := seen[t.ID]; !ok {
						seen[t.ID] = t.Clone()
					}
				}
				continue
			}
			attr := c.attrs[depth]
			kids := make([]hiddendb.Query, c.schema.DomainSize(attr))
			for v := range kids {
				kids[v] = qs[i].With(attr, v)
			}
			if err := crawl(kids, depth+1); err != nil {
				return err
			}
		}
		if trimmed {
			return budgetErr
		}
		return nil
	}
	if err := crawl([]hiddendb.Query{hiddendb.EmptyQuery()}, 0); err != nil {
		return nil, err
	}
	out := make([]hiddendb.Tuple, 0, len(seen)+len(anonRows))
	for _, t := range seen {
		out = append(out, t)
	}
	out = append(out, anonRows...)
	return out, nil
}
