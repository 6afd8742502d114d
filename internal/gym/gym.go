// Package gym defines the reinforcement-learning environment abstraction
// used throughout the project, modeled after OpenAI gym: environments with
// observation/action spaces, a Reset/Step episode protocol, and vectorized
// execution.
package gym

import (
	"fmt"
	"math/rand/v2"
)

// Space describes the shape and bounds of observations or actions.
type Space interface {
	// Dim returns the flat dimensionality of elements of the space.
	// For Discrete spaces this is 1 (the action index).
	Dim() int
	// Sample draws a uniform random element of the space into dst
	// (allocating when dst is nil) and returns it.
	Sample(rng *rand.Rand, dst []float64) []float64
	// Contains reports whether x is a valid element.
	Contains(x []float64) bool
	// String describes the space.
	String() string
}

// Discrete is a space of n integer actions {0, ..., n-1}, carried as a
// single float64.
type Discrete struct {
	N int
}

// Dim implements Space.
func (d Discrete) Dim() int { return 1 }

// Sample implements Space.
func (d Discrete) Sample(rng *rand.Rand, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, 1)
	}
	dst[0] = float64(rng.IntN(d.N))
	return dst
}

// Contains implements Space.
func (d Discrete) Contains(x []float64) bool {
	if len(x) != 1 {
		return false
	}
	i := int(x[0])
	//lint:ignore float-eq membership in a Discrete space requires x[0] to be exactly integral
	return float64(i) == x[0] && i >= 0 && i < d.N
}

func (d Discrete) String() string { return fmt.Sprintf("Discrete(%d)", d.N) }

// Box is a bounded continuous space. Low and High must have equal length.
type Box struct {
	Low, High []float64
}

// NewBox returns a Box with uniform bounds lo/hi across dim dimensions.
func NewBox(dim int, lo, hi float64) Box {
	l := make([]float64, dim)
	h := make([]float64, dim)
	for i := range l {
		l[i] = lo
		h[i] = hi
	}
	return Box{Low: l, High: h}
}

// Dim implements Space.
func (b Box) Dim() int { return len(b.Low) }

// Sample implements Space.
func (b Box) Sample(rng *rand.Rand, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(b.Low))
	}
	for i := range b.Low {
		dst[i] = b.Low[i] + rng.Float64()*(b.High[i]-b.Low[i])
	}
	return dst
}

// Contains implements Space.
func (b Box) Contains(x []float64) bool {
	if len(x) != len(b.Low) {
		return false
	}
	for i := range x {
		if x[i] < b.Low[i] || x[i] > b.High[i] {
			return false
		}
	}
	return true
}

func (b Box) String() string { return fmt.Sprintf("Box(%d)", len(b.Low)) }

// StepResult carries the outcome of one environment step.
//
// Obs may be a buffer owned by the environment and reused by its next
// Step/Reset call: it is valid until then, and consumers that retain
// observations across steps (rollout buffers, replay memories) must copy
// it. This is what lets environments run steady-state allocation-free.
type StepResult struct {
	Obs       []float64 // next observation (valid until the env's next Step/Reset)
	Reward    float64
	Done      bool // episode terminated (success, failure, or time limit)
	Truncated bool // Done was caused by a time limit, not the task
}

// Env is a single reinforcement-learning environment. Implementations are
// not required to be safe for concurrent use; vectorized execution creates
// one Env per worker.
type Env interface {
	// ObservationSpace and ActionSpace describe the interface of the env.
	ObservationSpace() Space
	ActionSpace() Space
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action and advances the simulation.
	Step(action []float64) StepResult
	// Seed reseeds the environment's internal randomness.
	Seed(seed uint64)
}

// EnvMaker constructs a fresh, independently seeded environment instance.
// Vectorized and distributed trainers use it to build per-worker envs.
type EnvMaker func(seed uint64) Env

// Costed is implemented by environments that know the virtual CPU cost of
// one Step (used by the cluster simulator to account computation time).
type Costed interface {
	// StepCost returns the modeled CPU time of one env step in seconds.
	StepCost() float64
}
