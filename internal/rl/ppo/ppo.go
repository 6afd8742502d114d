// Package ppo implements Proximal Policy Optimization (Schulman et al.,
// 2017) with a categorical policy: clipped surrogate objective, generalized
// advantage estimation normalized per update, minibatched multi-epoch
// updates, entropy bonus and global gradient clipping. The learner is separable from collection — the
// distributed backends ship policy weights to remote actors and feed
// collected rollouts back — which is exactly the architecture split the
// paper's RLlib configurations exercise.
package ppo

import (
	"math"
	"math/rand/v2"

	"rldecide/internal/mathx"
	"rldecide/internal/nn"
	"rldecide/internal/rl"
	"rldecide/internal/tensor"
)

// Config holds PPO hyperparameters. Zero fields are replaced by defaults.
type Config struct {
	Hidden    []int   // hidden layer sizes (default [64, 64])
	LR        float64 // Adam learning rate (default 3e-4)
	Gamma     float64 // discount (default 0.99)
	Lambda    float64 // GAE λ (default 0.95)
	ClipEps   float64 // surrogate clip ε (default 0.2)
	Epochs    int     // update epochs per rollout (default 8)
	Minibatch int     // minibatch size (default 128)
	EntCoef   float64 // entropy bonus coefficient (default 0.01)
	VfCoef    float64 // value-loss coefficient (default 0.5)
	MaxGrad   float64 // global gradient-norm clip (default 0.5)
}

// WithDefaults returns cfg with zero fields filled in.
func (c Config) WithDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LR == 0 {
		c.LR = 3e-4
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Lambda == 0 {
		c.Lambda = 0.95
	}
	if c.ClipEps == 0 {
		c.ClipEps = 0.2
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.Minibatch == 0 {
		c.Minibatch = 128
	}
	if c.EntCoef == 0 {
		c.EntCoef = 0.01
	}
	if c.VfCoef == 0 {
		c.VfCoef = 0.5
	}
	if c.MaxGrad == 0 {
		c.MaxGrad = 0.5
	}
	return c
}

// Stats reports one update's diagnostics.
type Stats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	ClipFrac   float64
	GradNorm   float64
	Steps      int
}

// PPO is the learner. It is not safe for concurrent use.
type PPO struct {
	Cfg      Config
	ObsDim   int
	NActions int

	Actor  *nn.MLP
	Critic *nn.MLP

	optActor  *nn.Adam
	optCritic *nn.Adam
	rng       *rand.Rand

	updates int

	// Update scratch, reused across minibatches and updates so the
	// steady-state training loop does not allocate.
	scrX, scrDlogits, scrDvals *tensor.Mat
	scrProbs, scrLogProbs      []float64
	flatObs                    [][]float64
	flatActs                   []int
	flatLogp, flatAdv, flatRet []float64
	idx                        []int
}

// New returns a PPO learner for obsDim observations and nActions discrete
// actions.
func New(cfg Config, obsDim, nActions int, seed uint64) *PPO {
	cfg = cfg.WithDefaults()
	rng := mathx.NewRand(seed)
	actorSizes := append(append([]int{obsDim}, cfg.Hidden...), nActions)
	criticSizes := append(append([]int{obsDim}, cfg.Hidden...), 1)
	p := &PPO{
		Cfg:      cfg,
		ObsDim:   obsDim,
		NActions: nActions,
		Actor:    nn.NewMLP(rng, actorSizes, nn.Tanh{}, 0.01),
		Critic:   nn.NewMLP(rng, criticSizes, nn.Tanh{}, 1.0),
		rng:      rng,
	}
	p.optActor = nn.NewAdam(p.Actor.Params(), cfg.LR)
	p.optCritic = nn.NewAdam(p.Critic.Params(), cfg.LR)
	return p
}

// Act samples an action for obs from the current policy, returning the
// action index, its log-probability and the critic's value estimate.
func (p *PPO) Act(obs []float64) (action int, logp, value float64) {
	logits := p.Actor.Forward1(obs)
	action = nn.CategoricalSample(p.rng, logits)
	logp = nn.CategoricalLogProb(logits, action)
	value = p.Critic.Forward1(obs)[0]
	return action, logp, value
}

// ActGreedy returns the mode of the policy (for evaluation).
func (p *PPO) ActGreedy(obs []float64) int {
	return nn.Argmax(p.Actor.Forward1(obs))
}

// Value returns the critic's estimate for obs.
func (p *PPO) Value(obs []float64) float64 {
	return p.Critic.Forward1(obs)[0]
}

// Policy returns an rl.Policy view of the greedy policy.
func (p *PPO) Policy() rl.Policy {
	return rl.PolicyFunc(func(obs []float64) []float64 {
		return []float64{float64(p.ActGreedy(obs))}
	})
}

// StochasticPolicy returns an rl.Policy that samples from the policy.
func (p *PPO) StochasticPolicy() rl.Policy {
	return rl.PolicyFunc(func(obs []float64) []float64 {
		a, _, _ := p.Act(obs)
		return []float64{float64(a)}
	})
}

// Weights exports actor+critic weights as one flat slice (the distributed
// backends ship this to remote workers).
func (p *PPO) Weights() []float64 {
	return append(p.Actor.Weights(), p.Critic.Weights()...)
}

// SetWeights loads a slice produced by Weights.
func (p *PPO) SetWeights(w []float64) {
	na := p.Actor.NumParams()
	p.Actor.SetWeights(w[:na])
	p.Critic.SetWeights(w[na:])
}

// NumWeights returns the flat weight count (for transfer-size accounting).
func (p *PPO) NumWeights() int { return p.Actor.NumParams() + p.Critic.NumParams() }

// Updates returns the number of Update calls so far.
func (p *PPO) Updates() int { return p.updates }

// SetLR changes the optimizer learning rate (used by trainers for linear
// decay schedules).
func (p *PPO) SetLR(lr float64) {
	p.optActor.LR = lr
	p.optCritic.LR = lr
}

// SetEntCoef changes the entropy-bonus coefficient (used by trainers for
// annealing schedules).
func (p *PPO) SetEntCoef(c float64) { p.Cfg.EntCoef = c }

// Update performs one PPO update from an on-policy rollout. The rollout's
// log-probs and values must have been recorded at collection time; GAE is
// (re)computed here with the learner's γ and λ.
func (p *PPO) Update(rollout *rl.Rollout) Stats {
	rollout.ComputeGAE(p.Cfg.Gamma, p.Cfg.Lambda)

	// Flatten the rollout into reused scratch.
	obs := p.flatObs[:0]
	acts := p.flatActs[:0]
	logp := p.flatLogp[:0]
	adv := p.flatAdv[:0]
	ret := p.flatRet[:0]
	for _, seg := range rollout.Segments {
		obs = append(obs, seg.Obs...)
		acts = append(acts, seg.Act...)
		logp = append(logp, seg.LogP...)
		adv = append(adv, seg.Adv...)
		ret = append(ret, seg.Ret...)
	}
	p.flatObs, p.flatActs, p.flatLogp, p.flatAdv, p.flatRet = obs, acts, logp, adv, ret
	n := len(obs)
	if n == 0 {
		return Stats{}
	}
	mean, std := mathx.Mean(adv), mathx.Std(adv)
	if std < 1e-8 {
		std = 1
	}
	for i := range adv {
		adv[i] = (adv[i] - mean) / std
	}

	if cap(p.idx) < n {
		p.idx = make([]int, n)
	}
	idx := p.idx[:n]
	for i := range idx {
		idx[i] = i
	}

	var stats Stats
	stats.Steps = n
	batches := 0

	mb := p.Cfg.Minibatch
	if mb > n {
		mb = n
	}
	for ep := 0; ep < p.Cfg.Epochs; ep++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += mb {
			end := start + mb
			if end > n {
				end = n
			}
			b := idx[start:end]
			s := p.updateMinibatch(obs, acts, logp, adv, ret, b)
			stats.PolicyLoss += s.PolicyLoss
			stats.ValueLoss += s.ValueLoss
			stats.Entropy += s.Entropy
			stats.ClipFrac += s.ClipFrac
			stats.GradNorm += s.GradNorm
			batches++
		}
	}
	if batches > 0 {
		stats.PolicyLoss /= float64(batches)
		stats.ValueLoss /= float64(batches)
		stats.Entropy /= float64(batches)
		stats.ClipFrac /= float64(batches)
		stats.GradNorm /= float64(batches)
	}
	p.updates++
	return stats
}

func (p *PPO) updateMinibatch(obs [][]float64, acts []int, oldLogp, adv, ret []float64, b []int) Stats {
	bs := len(b)
	p.scrX = tensor.Ensure(p.scrX, bs, p.ObsDim)
	x := p.scrX
	for i, j := range b {
		copy(x.Row(i), obs[j])
	}

	// ---- Actor ----
	p.Actor.ZeroGrad()
	logits := p.Actor.Forward(x)
	p.scrDlogits = tensor.Ensure(p.scrDlogits, bs, p.NActions)
	dlogits := p.scrDlogits

	var polLoss, entSum, clipped float64
	if p.scrProbs == nil {
		p.scrProbs = make([]float64, p.NActions)
		p.scrLogProbs = make([]float64, p.NActions)
	}
	probs := p.scrProbs
	logProbs := p.scrLogProbs
	for i, j := range b {
		row := logits.Row(i)
		nn.Softmax(row, probs)
		nn.LogSoftmax(row, logProbs)
		a := acts[j]
		newLogp := logProbs[a]
		ratio := math.Exp(newLogp - oldLogp[j])
		adval := adv[j]

		surr1 := ratio * adval
		surr2 := mathx.Clip(ratio, 1-p.Cfg.ClipEps, 1+p.Cfg.ClipEps) * adval
		polLoss += -math.Min(surr1, surr2)

		// Gradient of the clipped surrogate w.r.t. newLogp.
		var dLdLogp float64
		if surr1 <= surr2 {
			dLdLogp = -adval * ratio
		} else if ratio > 1-p.Cfg.ClipEps && ratio < 1+p.Cfg.ClipEps {
			dLdLogp = -adval * ratio
		} else {
			dLdLogp = 0
			clipped++
		}

		ent := nn.CategoricalEntropy(row)
		entSum += ent

		// dlogits = dLdLogp * (1{j=a} − p) − entCoef * dH/dlogits,
		// averaged over the minibatch.
		drow := dlogits.Row(i)
		for k := 0; k < p.NActions; k++ {
			ind := 0.0
			if k == a {
				ind = 1
			}
			dPol := dLdLogp * (ind - probs[k])
			dEnt := -probs[k] * (logProbs[k] + ent) // dH/dlogit_k
			drow[k] = (dPol - p.Cfg.EntCoef*dEnt) / float64(bs)
		}
	}
	p.Actor.Backward(dlogits)
	gnA := nn.ClipGrads(p.Actor.Params(), p.Cfg.MaxGrad)
	p.optActor.Step()

	// ---- Critic ----
	p.Critic.ZeroGrad()
	values := p.Critic.Forward(x)
	p.scrDvals = tensor.Ensure(p.scrDvals, bs, 1)
	dvals := p.scrDvals
	var vfLoss float64
	for i, j := range b {
		d := values.At(i, 0) - ret[j]
		vfLoss += 0.5 * d * d
		dvals.Set(i, 0, p.Cfg.VfCoef*d/float64(bs))
	}
	p.Critic.Backward(dvals)
	gnC := nn.ClipGrads(p.Critic.Params(), p.Cfg.MaxGrad)
	p.optCritic.Step()

	return Stats{
		PolicyLoss: polLoss / float64(bs),
		ValueLoss:  vfLoss / float64(bs),
		Entropy:    entSum / float64(bs),
		ClipFrac:   clipped / float64(bs),
		GradNorm:   gnA + gnC,
	}
}
