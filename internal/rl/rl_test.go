package rl

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rldecide/internal/gym"
	"rldecide/internal/gym/toy"
)

func TestGAEHandComputed(t *testing.T) {
	// Two steps, no termination, bootstrap 1.0 at the end.
	// gamma=0.5, lambda=0.5.
	s := &Segment{}
	s.Push([]float64{0}, 0, 0, 1.0, 1.0, false, false, 2.0) // V=1, r=1, V(next)=2
	s.Push([]float64{1}, 0, 0, 2.0, 0.0, false, true, 1.0)  // V=2, r=0, bootstrap=1
	s.ComputeGAE(0.5, 0.5)
	// t=1: delta = 0 + 0.5*1 - 2 = -1.5; adv = -1.5 (recursion cut).
	// t=0: delta = 1 + 0.5*2 - 1 = 1; trunc at t=1... recursion uses
	// next=adv[1] unless done/trunc at t: flags at t=0 are false, so
	// adv[0] = 1 + 0.25*(-1.5) = 0.625.
	if math.Abs(s.Adv[1]-(-1.5)) > 1e-12 {
		t.Errorf("adv[1]=%v want -1.5", s.Adv[1])
	}
	if math.Abs(s.Adv[0]-0.625) > 1e-12 {
		t.Errorf("adv[0]=%v want 0.625", s.Adv[0])
	}
	if math.Abs(s.Ret[0]-1.625) > 1e-12 || math.Abs(s.Ret[1]-0.5) > 1e-12 {
		t.Errorf("returns %v want [1.625, 0.5]", s.Ret)
	}
}

func TestGAETerminalCutsBootstrap(t *testing.T) {
	s := &Segment{}
	s.Push([]float64{0}, 0, 0, 3.0, 1.0, true, false, 99.0) // terminal: NextVal ignored
	s.ComputeGAE(0.9, 0.9)
	// delta = 1 + 0 - 3 = -2
	if math.Abs(s.Adv[0]-(-2)) > 1e-12 {
		t.Errorf("terminal adv=%v want -2", s.Adv[0])
	}
}

func TestGAETerminalMidSegment(t *testing.T) {
	// One env's segment holds an episode that terminates at t=1 and the
	// start of the next, truncated at t=2: the terminal step's advantage
	// must not take the next episode's. gamma=0.5, lambda=0.5.
	s := &Segment{}
	s.Push([]float64{0}, 0, 0, 1.0, 1.0, false, false, 2.0)
	s.Push([]float64{1}, 0, 0, 2.0, 0.0, true, false, 99.0) // terminal: NextVal ignored
	s.Push([]float64{2}, 0, 0, 0.5, 1.0, false, true, 1.0)
	s.ComputeGAE(0.5, 0.5)
	// t=2: delta = 1 + 0.5*1 - 0.5 = 1.0; truncation cuts the recursion.
	// t=1: delta = 0 + 0 - 2 = -2; the terminal cuts it again.
	// t=0: delta = 1 + 0.5*2 - 1 = 1; adv = 1 + 0.25*(-2) = 0.5.
	want := []float64{0.5, -2, 1.0}
	for i, w := range want {
		if math.Abs(s.Adv[i]-w) > 1e-12 {
			t.Errorf("adv[%d]=%v want %v", i, s.Adv[i], w)
		}
	}
	if math.Abs(s.Ret[0]-1.5) > 1e-12 {
		t.Errorf("ret[0]=%v want 1.5", s.Ret[0])
	}
}

func TestGAEMatchesMonteCarloWhenLambda1(t *testing.T) {
	// With λ=1 and no critic (V=0), returns must equal discounted rewards.
	s := &Segment{}
	rews := []float64{1, 2, 3}
	for i, r := range rews {
		done := i == len(rews)-1
		s.Push([]float64{0}, 0, 0, 0, r, done, false, 0)
	}
	gamma := 0.9
	s.ComputeGAE(gamma, 1.0)
	want0 := 1 + gamma*(2+gamma*3)
	if math.Abs(s.Ret[0]-want0) > 1e-12 {
		t.Errorf("MC return %v want %v", s.Ret[0], want0)
	}
}

func TestRolloutSteps(t *testing.T) {
	r := &Rollout{Segments: []*Segment{{}, {}}}
	r.Segments[0].Push([]float64{0}, 0, 0, 0, 0, false, false, 0)
	r.Segments[0].Push([]float64{0}, 0, 0, 0, 0, true, false, 0)
	r.Segments[1].Push([]float64{0}, 0, 0, 0, 0, true, false, 0)
	if r.Steps() != 3 {
		t.Errorf("Steps=%d want 3", r.Steps())
	}
	r.ComputeGAE(0.9, 0.9)
	if r.Segments[1].Adv == nil {
		t.Error("ComputeGAE did not reach all segments")
	}
}

func TestReplayBufferWrapAround(t *testing.T) {
	b := NewReplayBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if b.Len() != 3 || b.Cap() != 3 {
		t.Fatalf("len=%d cap=%d", b.Len(), b.Cap())
	}
	// Only rewards 2,3,4 can remain.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		s := b.Sample(rng, 1, nil)
		if s[0].Reward < 2 {
			t.Fatalf("evicted transition sampled: %v", s[0].Reward)
		}
	}
}

func TestReplayBufferProperty(t *testing.T) {
	f := func(adds uint8, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		b := NewReplayBuffer(capacity)
		for i := 0; i < int(adds); i++ {
			b.Add(Transition{Reward: float64(i)})
		}
		want := int(adds)
		if want > capacity {
			want = capacity
		}
		return b.Len() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplayBufferSampleSize(t *testing.T) {
	b := NewReplayBuffer(10)
	b.Add(Transition{})
	rng := rand.New(rand.NewPCG(3, 4))
	s := b.Sample(rng, 7, nil)
	if len(s) != 7 {
		t.Fatalf("sample len=%d want 7", len(s))
	}
	dst := make([]Transition, 0, 7)
	s2 := b.Sample(rng, 5, dst[:5])
	if len(s2) != 5 {
		t.Fatal("dst reuse failed")
	}
}

func TestReplayBufferPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty sample should panic")
			}
		}()
		NewReplayBuffer(2).Sample(rand.New(rand.NewPCG(1, 1)), 1, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity should panic")
			}
		}()
		NewReplayBuffer(0)
	}()
}

func TestEvaluate(t *testing.T) {
	env := toy.NewChain(7, 5)
	right := PolicyFunc(func([]float64) []float64 { return []float64{1} })
	res := Evaluate(env, right, 10)
	if res.MeanReturn != 1 {
		t.Fatalf("always-right on chain: %v", res)
	}
	if res.Episodes != 10 || res.MeanLength != 3 {
		t.Fatalf("stats wrong: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("String empty")
	}
	var _ gym.Env = env
}
