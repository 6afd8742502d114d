// Package toy provides tiny analytically-understood environments used by
// tests, examples and algorithm sanity checks: a discrete chain walk and a
// one-dimensional steering task that is a stripped-down cousin of the
// airdrop simulator.
package toy

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rldecide/internal/gym"
	"rldecide/internal/mathx"
)

// Chain is an N-state corridor. The agent starts in the middle and moves
// left (action 0) or right (action 1); reaching the right end yields +1,
// the left end -1. Optimal return is +1.
type Chain struct {
	N     int
	pos   int
	rng   *rand.Rand
	steps int
}

// NewChain returns a Chain with n states (n >= 3).
func NewChain(n int, seed uint64) *Chain {
	if n < 3 {
		panic("toy: Chain needs n >= 3")
	}
	return &Chain{N: n, rng: mathx.NewRand(seed)}
}

// ObservationSpace implements gym.Env.
func (c *Chain) ObservationSpace() gym.Space { return gym.NewBox(1, 0, float64(c.N-1)) }

// ActionSpace implements gym.Env.
func (c *Chain) ActionSpace() gym.Space { return gym.Discrete{N: 2} }

// Seed implements gym.Env.
func (c *Chain) Seed(seed uint64) { c.rng = mathx.NewRand(seed) }

// Reset implements gym.Env.
func (c *Chain) Reset() []float64 {
	c.pos = c.N / 2
	c.steps = 0
	return []float64{float64(c.pos)}
}

// Step implements gym.Env.
func (c *Chain) Step(action []float64) gym.StepResult {
	if action[0] >= 0.5 {
		c.pos++
	} else {
		c.pos--
	}
	c.steps++
	res := gym.StepResult{Obs: []float64{float64(c.pos)}}
	switch {
	case c.pos <= 0:
		res.Reward = -1
		res.Done = true
	case c.pos >= c.N-1:
		res.Reward = 1
		res.Done = true
	case c.steps >= 4*c.N:
		res.Done = true
		res.Truncated = true
	}
	return res
}

// Snapshot implements gym.StatefulEnv: [pos, steps].
func (c *Chain) Snapshot(dst []float64) []float64 {
	return append(dst, float64(c.pos), float64(c.steps))
}

// Restore implements gym.StatefulEnv.
func (c *Chain) Restore(snap []float64) error {
	if len(snap) != 2 {
		return fmt.Errorf("toy: Chain snapshot needs 2 values, got %d", len(snap))
	}
	c.pos = int(snap[0])
	c.steps = int(snap[1])
	return nil
}

// Steer1D is a one-dimensional "precision landing": the agent starts at a
// random horizontal offset with a fixed descent time budget and steers
// left/coast/right; at the final step the reward is -|position|/scale.
// It is the minimal analogue of the airdrop task: PPO should reach a
// near-zero return, a random policy lands far away.
type Steer1D struct {
	Horizon int     // steps per episode
	MaxOff  float64 // initial |offset| bound
	Accel   float64 // per-step velocity change of steering
	Scale   float64 // reward scale divisor

	pos, vel float64
	t        int
	rng      *rand.Rand
}

// NewSteer1D returns a Steer1D with sensible defaults.
func NewSteer1D(seed uint64) *Steer1D {
	return &Steer1D{
		Horizon: 60,
		MaxOff:  8,
		Accel:   0.08,
		Scale:   1,
		rng:     mathx.NewRand(seed),
	}
}

// ObservationSpace implements gym.Env. Observation = (pos, vel, time left).
func (s *Steer1D) ObservationSpace() gym.Space { return gym.NewBox(3, -100, 100) }

// ActionSpace implements gym.Env: 0=left, 1=coast, 2=right.
func (s *Steer1D) ActionSpace() gym.Space { return gym.Discrete{N: 3} }

// Seed implements gym.Env.
func (s *Steer1D) Seed(seed uint64) { s.rng = mathx.NewRand(seed) }

// Reset implements gym.Env.
func (s *Steer1D) Reset() []float64 {
	s.pos = (s.rng.Float64()*2 - 1) * s.MaxOff
	s.vel = 0
	s.t = 0
	return s.obs()
}

func (s *Steer1D) obs() []float64 {
	return []float64{s.pos, s.vel, float64(s.Horizon-s.t) / float64(s.Horizon)}
}

// Step implements gym.Env.
func (s *Steer1D) Step(action []float64) gym.StepResult {
	dir := action[0] - 1 // -1, 0, +1
	s.vel += dir * s.Accel
	s.vel = mathx.Clip(s.vel, -1, 1)
	s.pos += s.vel
	s.t++
	res := gym.StepResult{Obs: s.obs()}
	if s.t >= s.Horizon {
		res.Done = true
		res.Reward = -math.Abs(s.pos) / s.Scale
	}
	return res
}

// Snapshot implements gym.StatefulEnv: [pos, vel, t].
func (s *Steer1D) Snapshot(dst []float64) []float64 {
	return append(dst, s.pos, s.vel, float64(s.t))
}

// Restore implements gym.StatefulEnv.
func (s *Steer1D) Restore(snap []float64) error {
	if len(snap) != 3 {
		return fmt.Errorf("toy: Steer1D snapshot needs 3 values, got %d", len(snap))
	}
	s.pos = snap[0]
	s.vel = snap[1]
	s.t = int(snap[2])
	return nil
}

// MakeChain returns an EnvMaker for Chain.
func MakeChain(n int) gym.EnvMaker {
	return func(seed uint64) gym.Env { return NewChain(n, seed) }
}

// MakeSteer1D returns an EnvMaker for Steer1D.
func MakeSteer1D() gym.EnvMaker {
	return func(seed uint64) gym.Env { return NewSteer1D(seed) }
}
