package analysis

import (
	"fmt"
	"sort"

	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/rl"
)

// CounterfactualOptions tunes AnalyzeCounterfactuals. Zero values take
// defaults.
type CounterfactualOptions struct {
	// Horizon is how many pilot-policy steps each branch rolls forward
	// after the counterfactual action (default 20).
	Horizon int `json:"horizon,omitempty"`
	// Stride probes every Stride-th recorded step as a decision point
	// (default 5).
	Stride int `json:"stride,omitempty"`
	// TopN is how many decision points the report keeps, most regretful
	// first (default 10).
	TopN int `json:"top_n,omitempty"`
	// MaxEpisodes caps the episodes branched from (default 16, taken in
	// canonical order).
	MaxEpisodes int `json:"max_episodes,omitempty"`
}

// Branch is one rolled-out alternative at a decision point.
type Branch struct {
	Action  []float64 `json:"action"`
	Return  float64   `json:"return"`
	Factual bool      `json:"factual,omitempty"`
}

// DecisionPoint is one recorded step branched into counterfactuals: the
// factual action replayed against every alternative under the same
// branch seed. Regret is the return of the best branch minus the
// factual branch — how much a different decision would have gained.
type DecisionPoint struct {
	Trial         int       `json:"trial"`
	Index         int       `json:"index"`
	Step          int       `json:"step"`
	Env           string    `json:"env"`
	FactualAction []float64 `json:"factual_action"`
	FactualReturn float64   `json:"factual_return"`
	BestAction    []float64 `json:"best_action"`
	BestReturn    float64   `json:"best_return"`
	Regret        float64   `json:"regret"`
	Branches      []Branch  `json:"branches"`
}

// CounterfactualReport ranks recorded decision points by how much the
// realized action diverged from the best available alternative.
type CounterfactualReport struct {
	Episodes int             `json:"episodes"`
	Points   int             `json:"points"`
	Horizon  int             `json:"horizon"`
	Stride   int             `json:"stride"`
	Envs     []string        `json:"envs,omitempty"`
	Top      []DecisionPoint `json:"top,omitempty"`
}

// AnalyzeCounterfactuals replays recorded decision points against the
// actions not taken. Each probed step restores the episode's saved
// gym.StatefulEnv snapshot, applies one alternative action, and rolls
// the episode forward with the environment's registered pilot policy;
// branches at the same decision point share one derived seed, so every
// alternative faces identical post-branch randomness (common random
// numbers) and the return spread measures the action, not the noise.
// The whole procedure is deterministic: identical journals yield
// byte-identical reports.
//
// Episodes recorded without snapshots (the env did not implement
// gym.StatefulEnv) or naming an unregistered environment are skipped;
// if nothing remains, AnalyzeCounterfactuals returns an error.
func AnalyzeCounterfactuals(episodes []rl.Episode, opts CounterfactualOptions) (CounterfactualReport, error) {
	if opts.Horizon <= 0 {
		opts.Horizon = 20
	}
	if opts.Stride <= 0 {
		opts.Stride = 5
	}
	if opts.TopN <= 0 {
		opts.TopN = 10
	}
	if opts.MaxEpisodes <= 0 {
		opts.MaxEpisodes = 16
	}
	rep := CounterfactualReport{Horizon: opts.Horizon, Stride: opts.Stride}

	envSeen := map[string]bool{}
	var points []DecisionPoint
	used := 0
	for _, ep := range episodes {
		if used >= opts.MaxEpisodes {
			break
		}
		if len(ep.States) == 0 || ep.Env == "" {
			continue
		}
		spec, err := LookupEnv(ep.Env)
		if err != nil {
			continue
		}
		env, ok := spec.Maker(ep.Seed).(gym.StatefulEnv)
		if !ok {
			continue
		}
		used++
		if !envSeen[ep.Env] {
			envSeen[ep.Env] = true
			rep.Envs = append(rep.Envs, ep.Env)
		}
		for t := 0; t < len(ep.States) && t < len(ep.Act); t += opts.Stride {
			factual := ep.Act[t]
			if len(factual) == 0 {
				continue
			}
			seed := branchSeed(ep.Trial, ep.Index, t)
			fret, ok := branchReturn(env, ep.States[t], seed, factual, spec.Pilot, opts.Horizon)
			if !ok {
				continue
			}
			dp := DecisionPoint{
				Trial:         ep.Trial,
				Index:         ep.Index,
				Step:          t,
				Env:           ep.Env,
				FactualAction: factual,
				FactualReturn: fret,
				BestAction:    factual,
				BestReturn:    fret,
				Branches:      []Branch{{Action: factual, Return: fret, Factual: true}},
			}
			for _, alt := range alternatives(env.ActionSpace(), factual) {
				aret, ok := branchReturn(env, ep.States[t], seed, alt, spec.Pilot, opts.Horizon)
				if !ok {
					continue
				}
				dp.Branches = append(dp.Branches, Branch{Action: alt, Return: aret})
				if aret > dp.BestReturn {
					dp.BestReturn = aret
					dp.BestAction = alt
				}
			}
			dp.Regret = dp.BestReturn - dp.FactualReturn
			points = append(points, dp)
		}
	}
	if used == 0 {
		return rep, fmt.Errorf("analysis: no branchable episodes (need snapshots and a registered environment; registered: %v)", Envs())
	}
	rep.Episodes = used
	rep.Points = len(points)

	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Regret > points[j].Regret {
			return true
		}
		if points[i].Regret < points[j].Regret {
			return false
		}
		if points[i].Trial != points[j].Trial {
			return points[i].Trial < points[j].Trial
		}
		if points[i].Index != points[j].Index {
			return points[i].Index < points[j].Index
		}
		return points[i].Step < points[j].Step
	})
	if len(points) > opts.TopN {
		points = points[:opts.TopN]
	}
	rep.Top = points
	return rep, nil
}

// branchReturn rolls one counterfactual branch: reseed for deterministic
// post-branch randomness, Reset to a defined episode state, Restore the
// saved snapshot, take the branch action, then follow the pilot policy
// for up to horizon further steps.
func branchReturn(env gym.StatefulEnv, snap []float64, seed uint64, action []float64, pilot rl.Policy, horizon int) (float64, bool) {
	env.Seed(seed)
	env.Reset()
	if err := env.Restore(snap); err != nil {
		return 0, false
	}
	res := env.Step(action)
	ret := res.Reward
	for h := 0; h < horizon && !res.Done; h++ {
		res = env.Step(pilot.Act(res.Obs))
		ret += res.Reward
	}
	return ret, true
}

// alternatives enumerates the counterfactual actions for a space: every
// other index of a Discrete space, and none for any other space.
func alternatives(space gym.Space, factual []float64) [][]float64 {
	s, ok := space.(gym.Discrete)
	if !ok {
		return nil
	}
	out := make([][]float64, 0, s.N-1)
	for a := 0; a < s.N; a++ {
		if a == int(factual[0]) {
			continue
		}
		out = append(out, []float64{float64(a)})
	}
	return out
}

// branchSeed derives the shared per-decision-point branch seed. Every
// branch at (trial, index, step) gets the same seed — common random
// numbers — and distinct decision points get well-separated streams.
func branchSeed(trial, index, step int) uint64 {
	s := uint64(trial)<<40 ^ uint64(index)<<20 ^ uint64(step)
	return mathx.SplitMix64(&s)
}
