package ppo

import (
	"rldecide/internal/gym"
	"rldecide/internal/rl"
)

// Collector gathers fixed-size on-policy rollouts from a vectorized
// environment, carrying episode state across rollouts. The policy used to
// act may be the learner itself or a (stale) worker copy — the recorded
// log-probs and values always come from the acting policy, as PPO requires.
//
// All per-step state (current observations, the deferred pending step) is
// copied into collector-owned buffers, so environments are free to reuse
// their observation storage (the gym.StepResult contract), and repeated
// Collect calls reuse segments and scratch — steady-state collection does
// not allocate.
type Collector struct {
	Vec *gym.VecEnv

	obs     [][]float64 // collector-owned copy of each env's current obs
	pendObs [][]float64 // collector-owned obs of the deferred pending step
	pending []pendingStep
	has     []bool
	epRet   []float64

	segs    []*rl.Segment
	actions [][]float64
	acts    []int
	logps   []float64
	vals    []float64

	episodes []float64
}

type pendingStep struct {
	obs   []float64
	act   int
	logp  float64
	val   float64
	rew   float64
	done  bool
	trunc bool
	next  float64
}

// NewCollector resets vec and prepares per-env episode state.
func NewCollector(vec *gym.VecEnv) *Collector {
	n := vec.N()
	c := &Collector{
		Vec:     vec,
		obs:     make([][]float64, n),
		pendObs: make([][]float64, n),
		pending: make([]pendingStep, n),
		has:     make([]bool, n),
		epRet:   make([]float64, n),
		segs:    make([]*rl.Segment, n),
		actions: make([][]float64, n),
		acts:    make([]int, n),
		logps:   make([]float64, n),
		vals:    make([]float64, n),
	}
	for i, o := range vec.Reset() {
		c.obs[i] = append([]float64(nil), o...)
		c.pendObs[i] = make([]float64, len(o))
		c.actions[i] = []float64{0}
		c.segs[i] = &rl.Segment{}
	}
	return c
}

// Collect advances every environment nSteps times under p's stochastic
// policy and returns the resulting rollout (one segment per environment,
// nSteps each). The rollout's segments are owned by the collector and
// reused by the next Collect call.
func (c *Collector) Collect(p *PPO, nSteps int) *rl.Rollout {
	n := c.Vec.N()
	obsDim := len(c.obs[0])
	for i := range c.segs {
		c.segs[i].Clear()
		c.segs[i].Reserve(nSteps, obsDim)
	}

	for t := 0; t < nSteps; t++ {
		for i := 0; i < n; i++ {
			a, lp, v := p.Act(c.obs[i])
			c.acts[i], c.logps[i], c.vals[i] = a, lp, v
			c.actions[i][0] = float64(a)
			// The value of this state is the successor value of the
			// pending (previous) step of the same env.
			if c.has[i] {
				c.pending[i].next = v
				c.segs[i].Push(c.pending[i].obs, c.pending[i].act, c.pending[i].logp,
					c.pending[i].val, c.pending[i].rew, c.pending[i].done,
					c.pending[i].trunc, c.pending[i].next)
				c.has[i] = false
			}
		}
		steps := c.Vec.Step(c.actions)
		for i := range steps {
			s := &steps[i]
			c.epRet[i] += s.Reward
			// c.obs[i] still holds the pre-step observation (it is a
			// collector-owned copy, untouched by the env's Step).
			ps := pendingStep{
				obs:  c.obs[i],
				act:  c.acts[i],
				logp: c.logps[i],
				val:  c.vals[i],
				rew:  s.Reward,
				done: s.Done && !s.Truncated,
			}
			if s.Done {
				if s.Truncated {
					ps.trunc = true
					ps.next = p.Value(s.FinalObs)
				}
				c.segs[i].Push(ps.obs, ps.act, ps.logp, ps.val, ps.rew, ps.done, ps.trunc, ps.next)
				c.episodes = append(c.episodes, c.epRet[i])
				c.epRet[i] = 0
			} else {
				// Deferred until the successor value is known: move the
				// pre-step obs into the pending buffer before c.obs[i] is
				// overwritten below.
				copy(c.pendObs[i], c.obs[i])
				ps.obs = c.pendObs[i]
				c.pending[i] = ps
				c.has[i] = true
			}
			copy(c.obs[i], s.Obs)
		}
	}
	// Bootstrap the still-pending steps with the value of the state the
	// rollout stopped in (treated as a truncation for GAE purposes).
	for i := 0; i < n; i++ {
		if c.has[i] {
			ps := c.pending[i]
			ps.trunc = true
			ps.next = p.Value(c.obs[i])
			c.segs[i].Push(ps.obs, ps.act, ps.logp, ps.val, ps.rew, ps.done, ps.trunc, ps.next)
			c.has[i] = false
		}
	}
	return &rl.Rollout{Segments: c.segs}
}

// TakeEpisodes returns the returns of episodes completed since the last
// call and clears the internal list.
func (c *Collector) TakeEpisodes() []float64 {
	out := c.episodes
	c.episodes = nil
	return out
}

// EpisodeCount returns the number of completed, not-yet-taken episodes.
func (c *Collector) EpisodeCount() int { return len(c.episodes) }
