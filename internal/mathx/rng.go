// Package mathx provides small numeric helpers shared across the project:
// deterministic random-number fan-out, clipping, tolerance comparisons and
// summary statistics. Everything is allocation-light and safe to use from
// hot loops.
package mathx

import (
	"math/rand/v2"
)

// SplitMix64 advances a SplitMix64 state and returns the next value.
// It is used to derive independent child seeds from a root seed so that
// every component of a study (trial, worker, environment instance) gets a
// deterministic, well-separated random stream.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seeder derives independent deterministic seeds from a root seed.
// The zero value is NOT usable; construct with NewSeeder.
type Seeder struct {
	state uint64
}

// NewSeeder returns a Seeder rooted at seed.
func NewSeeder(seed uint64) *Seeder {
	// Mix the root once so that nearby seeds (0, 1, 2, ...) produce
	// unrelated child streams.
	s := seed
	SplitMix64(&s)
	return &Seeder{state: s}
}

// Next returns the next derived 64-bit seed.
func (s *Seeder) Next() uint64 { return SplitMix64(&s.state) }

// NextPair returns two derived seeds, convenient for rand.NewPCG.
func (s *Seeder) NextPair() (uint64, uint64) { return s.Next(), s.Next() }

// NewRand returns a new deterministic *rand.Rand derived from the seeder.
func (s *Seeder) NewRand() *rand.Rand {
	a, b := s.NextPair()
	return rand.New(rand.NewPCG(a, b))
}

// NewRand returns a deterministic PCG-backed *rand.Rand from a single seed.
func NewRand(seed uint64) *rand.Rand {
	sd := NewSeeder(seed)
	return sd.NewRand()
}
