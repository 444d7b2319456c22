package hdsampler

import (
	"context"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
)

// WeightedSet holds reach-weighted candidates for Horvitz–Thompson
// aggregate estimation (see DrawWeighted).
type WeightedSet = estimate.WeightedSet

// DrawWeighted collects n candidates *without* acceptance/rejection,
// keeping each one's exact reach probability. Aggregates computed from the
// returned set via its Count/Sum/Avg/Population methods are unbiased over
// reachable tuples (Horvitz–Thompson weighting), so every interface query
// contributes — the alternative to burning queries on rejection when the
// goal is an aggregate rather than a uniform sample.
func (s *Sampler) DrawWeighted(ctx context.Context, n int) (*WeightedSet, Stats, error) {
	ws := &WeightedSet{}
	st, err := s.draw(ctx, n, nil, func(c *core.Candidate) error {
		ws.Add(c.Tuple, c.Reach, c.Restarts)
		return nil
	})
	return ws, st, err
}
