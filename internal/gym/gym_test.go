package gym

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rldecide/internal/mathx"
)

func TestDiscreteSpace(t *testing.T) {
	d := Discrete{N: 4}
	if d.Dim() != 1 {
		t.Fatal("Discrete dim must be 1")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		x := d.Sample(rng, nil)
		if !d.Contains(x) {
			t.Fatalf("sample %v outside space", x)
		}
		seen[int(x[0])] = true
	}
	if len(seen) != 4 {
		t.Errorf("sampling missed actions: %v", seen)
	}
	if d.Contains([]float64{4}) || d.Contains([]float64{-1}) || d.Contains([]float64{1.5}) {
		t.Error("Contains accepted invalid action")
	}
	if d.String() != "Discrete(4)" {
		t.Errorf("String=%q", d.String())
	}
}

func TestBoxSpaceProperty(t *testing.T) {
	b := NewBox(3, -2, 5)
	rng := rand.New(rand.NewPCG(3, 4))
	f := func(_ uint8) bool {
		x := b.Sample(rng, nil)
		return b.Contains(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if b.Contains([]float64{0, 0}) {
		t.Error("Contains accepted wrong dim")
	}
	if b.Contains([]float64{0, 6, 0}) {
		t.Error("Contains accepted out of bounds")
	}
	if b.Dim() != 3 {
		t.Error("Dim wrong")
	}
}

// countEnv terminates after 3 steps with reward 1 per step.
type countEnv struct {
	n    int
	seed uint64
}

func (c *countEnv) ObservationSpace() Space { return NewBox(1, -10, 10) }
func (c *countEnv) ActionSpace() Space      { return Discrete{N: 2} }
func (c *countEnv) Seed(seed uint64)        { c.seed = seed }
func (c *countEnv) Reset() []float64        { c.n = 0; return []float64{0} }
func (c *countEnv) Step(a []float64) StepResult {
	c.n++
	return StepResult{Obs: []float64{float64(c.n)}, Reward: 1, Done: c.n >= 3}
}

func TestVecEnvAutoReset(t *testing.T) {
	maker := func(seed uint64) Env { return &countEnv{seed: seed} }
	v := NewVec(maker, 4, mathx.NewSeeder(1), false)
	if v.N() != 4 {
		t.Fatal("N wrong")
	}
	obs := v.Reset()
	if len(obs) != 4 || obs[0][0] != 0 {
		t.Fatalf("reset obs wrong: %v", obs)
	}
	actions := [][]float64{{0}, {0}, {0}, {0}}
	var steps []VecStep
	for i := 0; i < 3; i++ {
		steps = v.Step(actions)
	}
	for i, s := range steps {
		if !s.Done {
			t.Fatalf("env %d should be done", i)
		}
		if s.FinalObs == nil || s.FinalObs[0] != 3 {
			t.Fatalf("env %d FinalObs=%v want [3]", i, s.FinalObs)
		}
		if s.Obs[0] != 0 {
			t.Fatalf("env %d auto-reset obs=%v want [0]", i, s.Obs)
		}
	}
	// next step continues fresh episodes
	steps = v.Step(actions)
	for i, s := range steps {
		if s.Done || s.Obs[0] != 1 {
			t.Fatalf("env %d after auto-reset: %+v", i, s)
		}
	}
}

func TestVecEnvParallelMatchesSerial(t *testing.T) {
	makerA := func(seed uint64) Env { return &countEnv{seed: seed} }
	a := NewVec(makerA, 8, mathx.NewSeeder(9), false)
	b := NewVec(makerA, 8, mathx.NewSeeder(9), true)
	a.Reset()
	b.Reset()
	acts := make([][]float64, 8)
	for i := range acts {
		acts[i] = []float64{0}
	}
	for step := 0; step < 5; step++ {
		ra := a.Step(acts)
		rb := b.Step(acts)
		for i := range ra {
			if ra[i].Reward != rb[i].Reward || ra[i].Done != rb[i].Done || ra[i].Obs[0] != rb[i].Obs[0] {
				t.Fatalf("parallel/serial diverge at step %d env %d: %+v vs %+v", step, i, ra[i], rb[i])
			}
		}
	}
	if v := a.Env(0); v == nil {
		t.Fatal("Env accessor nil")
	}
	if a.ObservationSpace().Dim() != 1 || a.ActionSpace().Dim() != 1 {
		t.Fatal("space accessors wrong")
	}
}
