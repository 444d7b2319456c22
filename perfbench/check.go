package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"hdsampler/internal/hiddendb"
)

// wireSet is the part of GET /jobs/{id}/samples (a store.SampleSet) the
// checks read.
type wireSet struct {
	Schema struct {
		Attrs []struct {
			Name string `json:"name"`
		} `json:"attrs"`
	} `json:"schema"`
	Samples []wireSample `json:"samples"`
}

type wireSample struct {
	ID   int                `json:"id"`
	Vals []int              `json:"vals"`
	Nums map[string]float64 `json:"nums"`
}

// checker verifies samples against the site's database and pools them
// for the marginal check.
type checker struct {
	db     *hiddendb.DB
	schema *hiddendb.Schema
	skew   float64
	counts [][]int // pooled per-attribute value counts
	n      int
}

func newChecker(db *hiddendb.DB, skew float64) *checker {
	s := db.Schema()
	c := &checker{db: db, schema: s, skew: skew, counts: make([][]int, s.NumAttrs())}
	for a := range c.counts {
		c.counts[a] = make([]int, s.DomainSize(a))
	}
	return c
}

// job checks a completed job's sample set: the schema is the site's, it
// holds exactly n samples, and every sample is a row of the database.
func (c *checker) job(r *jobRecord) error {
	var set wireSet
	if err := json.Unmarshal(r.body, &set); err != nil {
		return fmt.Errorf("decode samples: %w", err)
	}
	if len(set.Schema.Attrs) != c.schema.NumAttrs() {
		return fmt.Errorf("schema has %d attributes, the site %d", len(set.Schema.Attrs), c.schema.NumAttrs())
	}
	for a, wa := range set.Schema.Attrs {
		if wa.Name != c.schema.Attrs[a].Name {
			return fmt.Errorf("schema attribute %d is %q, the site's %q", a, wa.Name, c.schema.Attrs[a].Name)
		}
	}
	if len(set.Samples) != r.n {
		return fmt.Errorf("%d samples, want %d", len(set.Samples), r.n)
	}
	for i, s := range set.Samples {
		if err := c.sample(s); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return nil
}

// sample checks one sample against db.Tuple(ID) and pools its values.
func (c *checker) sample(s wireSample) error {
	if s.ID < 0 || s.ID >= c.db.Size() {
		return fmt.Errorf("id %d out of range [0, %d)", s.ID, c.db.Size())
	}
	t := c.db.Tuple(s.ID)
	if len(s.Vals) != len(t.Vals) {
		return fmt.Errorf("id %d: %d values, the row has %d", s.ID, len(s.Vals), len(t.Vals))
	}
	for a, v := range s.Vals {
		if v != t.Vals[a] {
			return fmt.Errorf("id %d: %s = %d, the row has %d", s.ID, c.schema.Attrs[a].Name, v, t.Vals[a])
		}
	}
	for a := range c.schema.Attrs {
		want, ok := t.Num(a)
		got, have := s.Nums[c.schema.Attrs[a].Name]
		if ok != have || (ok && got != want) {
			return fmt.Errorf("id %d: numeric %s = %v (present %v), the row has %v (present %v)",
				s.ID, c.schema.Attrs[a].Name, got, have, want, ok)
		}
	}
	if len(s.Nums) != countNums(&t) {
		return fmt.Errorf("id %d: %d numeric values, the row has %d", s.ID, len(s.Nums), countNums(&t))
	}
	c.pool(s.Vals)
	return nil
}

// pool adds one checked sample's values to the pooled marginals.
func (c *checker) pool(vals []int) {
	for a, v := range vals {
		c.counts[a][v]++
	}
	c.n++
}

func countNums(t *hiddendb.Tuple) int {
	n := 0
	for a := range t.Nums {
		if _, ok := t.Num(a); ok {
			n++
		}
	}
	return n
}

// marginalBound is the largest total-variation distance between a pooled
// per-attribute marginal of n samples and the database's true marginal
// over d values that the check accepts: the sampler's allowed skew plus
// three times the bound sqrt(d/(2πn)) on the distance expected of n
// uniform samples.
func marginalBound(skew float64, n, d int) float64 {
	return skew + 3*math.Sqrt(float64(d)/(2*math.Pi*float64(n)))
}

// marginals checks every attribute's pooled sample marginal against
// db.TrueMarginal.
func (c *checker) marginals() error {
	if c.n == 0 {
		return errors.New("marginals: no samples to check")
	}
	worst, worstAttr := 0.0, ""
	for a := range c.counts {
		truth := c.db.TrueMarginal(a)
		tv := 0.0
		for v, k := range c.counts[a] {
			tv += math.Abs(float64(k)/float64(c.n) - float64(truth[v])/float64(c.db.Size()))
		}
		tv /= 2
		b := marginalBound(c.skew, c.n, len(truth))
		if tv > b {
			return fmt.Errorf("marginals: %s is %.3f from the true marginal in total variation over %d samples, bound %.3f",
				c.schema.Attrs[a].Name, tv, c.n, b)
		}
		if tv > worst {
			worst, worstAttr = tv, c.schema.Attrs[a].Name
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: marginals: largest total variation %.3f (%s) over %d samples\n", worst, worstAttr, c.n)
	return nil
}
