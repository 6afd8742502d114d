package distrib

import (
	"fmt"

	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/rl"
)

// actionCountOf extracts the discrete action count of a space.
func actionCountOf(s gym.Space) (int, error) {
	d, ok := s.(gym.Discrete)
	if !ok {
		return 0, fmt.Errorf("distrib: discrete action space required, got %s", s)
	}
	return d.N, nil
}

// evaluatePolicy runs the final evaluation on a freshly seeded env. The
// trainers evaluate the *stochastic* policy — the object the algorithms
// actually optimize (and RLlib's default evaluation behaviour) — so the
// sharpness of the final policy shows up in the reported reward.
func evaluatePolicy(cfg *TrainConfig, seeder *mathx.Seeder, policy rl.Policy) rl.EvalResult {
	return rl.Evaluate(cfg.EnvMaker(seeder.Next()), policy, cfg.EvalEpisodes)
}

// lrDecay returns the linear-to-zero learning-rate factor at the given
// progress, floored at 5% so late rollouts still learn.
func lrDecay(steps, total int) float64 {
	f := 1 - float64(steps)/float64(total)
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// entAnneal interpolates the entropy coefficient from the shared
// exploration level down to the framework preset's final value: every
// backend explores equally early on, but they converge to policies of
// different sharpness — which the stochastic evaluation prices.
func entAnneal(finalCoef float64, steps, total int) float64 {
	const explore = 0.01
	progress := float64(steps) / float64(total)
	if progress > 1 {
		progress = 1
	}
	return explore + (finalCoef-explore)*progress
}

// curveTracker aggregates finished-episode returns into learning-curve
// points, one point per flush.
type curveTracker struct {
	points   []CurvePoint
	episodes int
}

// flush records the episodes completed during the last window at the given
// cumulative step count.
func (c *curveTracker) flush(steps int, eps []float64) {
	if len(eps) == 0 {
		return
	}
	c.episodes += len(eps)
	c.points = append(c.points, CurvePoint{Steps: steps, Reward: mathx.Mean(eps)})
}
