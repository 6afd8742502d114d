// Package airdrop implements the Airdrop Package Delivery Simulator of the
// paper: a gym environment in which an agent steers a parachute canopy to a
// precision landing on a target.
//
// The physics follows a quasi-steady glide model with three coupled parts:
//
//   - planar kinematics: the canopy advances at airspeed V along heading ψ
//     and descends at rate w, drifting with the wind;
//   - turn dynamics: the steering action deflects a brake line, driving the
//     turn rate ψ̇ through first-order lag dynamics;
//   - payload pendulum: the package swings under the canopy with natural
//     frequency √(g/L), excited by turning (centripetal forcing). This fast
//     oscillatory mode is what makes the Runge-Kutta order matter: at the
//     solver step used by the simulator, a 3rd-order method shows visible
//     local truncation error while the 8th-order method is essentially
//     exact.
//
// As in the paper, the Runge-Kutta order (3, 5 or 8 — the SciPy solve_ivp
// family) is an environment parameter trading computation time against the
// accuracy of the computed dynamics. The integrator's *genuine* embedded /
// Richardson local-error estimate is surfaced as solution uncertainty on
// the observation, so lower orders degrade the information the agent
// steers by.
package airdrop

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/ode"
)

// State-vector layout for the ODE system.
const (
	iPX     = iota // x position (units)
	iPY            // y position
	iAlt           // altitude
	iPsi           // heading (rad)
	iPsiDot        // turn rate (rad/s)
	iPhi           // pendulum swing angle (rad)
	iPhiDot        // pendulum swing rate (rad/s)
	stateDim
)

// ObsDim is the dimension of the observation vector.
const ObsDim = 10

// Wind configures the wind model.
type Wind struct {
	Enabled   bool    // steady wind on/off (paper: disabled for the study)
	Speed     float64 // steady wind speed (units/s)
	Direction float64 // steady wind direction (rad)
	Gusts     bool    // enable random gusts
	GustProb  float64 // per-control-step gust occurrence probability
	GustSpeed float64 // gust magnitude (units/s)
}

// Config parameterizes the simulator. NewConfig returns the defaults used
// by the paper's campaign; zero values in a hand-built Config are replaced
// by those defaults on New.
type Config struct {
	// RKOrder selects the Runge-Kutta method (3, 5 or 8).
	RKOrder int
	// ControlDt is the agent's decision period in seconds.
	ControlDt float64
	// SolverStep is the ODE solver step inside one control period.
	SolverStep float64
	// AltMin, AltMax bound the random drop altitude (paper: 30–1000).
	AltMin, AltMax float64
	// Wind configures steady wind and gusts.
	Wind Wind
	// Airspeed is the canopy forward speed (units/s).
	Airspeed float64
	// Descent is the sink rate (units/s).
	Descent float64
	// TurnGain and TurnDamp shape the turn-rate dynamics
	// ψ̈ = TurnGain·u − TurnDamp·ψ̇.
	TurnGain, TurnDamp float64
	// PendulumLen is the payload suspension length (sets the fast mode).
	PendulumLen float64
	// PendulumDamp damps the swing mode.
	PendulumDamp float64
	// RewardScale divides the landing miss distance in the terminal
	// reward: r = −dist/RewardScale.
	RewardScale float64
	// NoiseGain scales the solver-error-driven observation uncertainty.
	NoiseGain float64
	// MaxSteps truncates pathological episodes (safety net).
	MaxSteps int
}

// NewConfig returns the default simulator configuration: RK order 3, wind
// disabled, drop altitude in [30, 1000] — the paper's case-study setup.
func NewConfig() Config {
	return Config{
		RKOrder:      3,
		ControlDt:    1.0,
		SolverStep:   0.5,
		AltMin:       30,
		AltMax:       1000,
		Airspeed:     15,
		Descent:      7.5,
		TurnGain:     0.9,
		TurnDamp:     1.6,
		PendulumLen:  3.0,
		PendulumDamp: 0.35,
		RewardScale:  100,
		NoiseGain:    2.4,
		MaxSteps:     400,
		Wind: Wind{
			Speed:     3,
			Direction: 0,
			GustProb:  0.05,
			GustSpeed: 4,
		},
	}
}

func (c *Config) fillDefaults() {
	d := NewConfig()
	if c.RKOrder == 0 {
		c.RKOrder = d.RKOrder
	}
	if c.ControlDt == 0 {
		c.ControlDt = d.ControlDt
	}
	if c.SolverStep == 0 {
		c.SolverStep = d.SolverStep
	}
	if c.AltMin == 0 {
		c.AltMin = d.AltMin
	}
	if c.AltMax == 0 {
		c.AltMax = d.AltMax
	}
	if c.Airspeed == 0 {
		c.Airspeed = d.Airspeed
	}
	if c.Descent == 0 {
		c.Descent = d.Descent
	}
	if c.TurnGain == 0 {
		c.TurnGain = d.TurnGain
	}
	if c.TurnDamp == 0 {
		c.TurnDamp = d.TurnDamp
	}
	if c.PendulumLen == 0 {
		c.PendulumLen = d.PendulumLen
	}
	if c.PendulumDamp == 0 {
		c.PendulumDamp = d.PendulumDamp
	}
	if c.RewardScale == 0 {
		c.RewardScale = d.RewardScale
	}
	if c.NoiseGain == 0 {
		c.NoiseGain = d.NoiseGain
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = d.MaxSteps
	}
}

const gravity = 9.81

// Env is the airdrop simulator. It implements gym.Env and gym.Costed.
type Env struct {
	cfg     Config
	method  *ode.Method
	stepper *ode.Stepper
	esterr  *ode.ErrorEstimator
	rng     *rand.Rand

	state   [stateDim]float64
	wind    [2]float64 // current effective wind (steady + gust)
	gust    [2]float64 // decaying gust component
	t       float64
	steps   int
	landed  bool
	errLvl  float64 // running local-error estimate of the solver
	errTick int

	u    float64  // current brake command, read by rhs
	f    ode.Func // bound e.rhs, built once (closure-free Step)
	yerr [stateDim]float64
	obs  [ObsDim]float64 // reused observation buffer
}

// New returns a simulator with cfg (zero fields replaced by defaults),
// seeded with seed. It returns an error for unsupported RK orders.
func New(cfg Config, seed uint64) (*Env, error) {
	cfg.fillDefaults()
	m, err := ode.ByOrder(cfg.RKOrder)
	if err != nil {
		return nil, fmt.Errorf("airdrop: %w", err)
	}
	e := &Env{
		cfg:     cfg,
		method:  m,
		stepper: ode.NewStepper(m, stateDim),
		esterr:  ode.NewErrorEstimator(m, stateDim),
		rng:     mathx.NewRand(seed),
	}
	e.f = e.rhs
	return e, nil
}

// MustNew is New that panics on configuration errors; for tests and
// examples.
func MustNew(cfg Config, seed uint64) *Env {
	e, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Make returns a gym.EnvMaker producing simulators with cfg.
func Make(cfg Config) gym.EnvMaker {
	return func(seed uint64) gym.Env { return MustNew(cfg, seed) }
}

// Config returns the effective (default-filled) configuration.
func (e *Env) Config() Config { return e.cfg }

// Method returns the Runge-Kutta method in use.
func (e *Env) Method() *ode.Method { return e.method }

// ObservationSpace implements gym.Env.
func (e *Env) ObservationSpace() gym.Space { return gym.NewBox(ObsDim, -100, 100) }

// ActionSpace implements gym.Env.
func (e *Env) ActionSpace() gym.Space { return gym.Discrete{N: 3} }

// Seed implements gym.Env.
func (e *Env) Seed(seed uint64) { e.rng = mathx.NewRand(seed) }

// Reset implements gym.Env: the package is dropped from a random altitude
// in [AltMin, AltMax], at a random bearing and a horizontal offset scaled
// to the reachable glide range, with a random initial heading.
func (e *Env) Reset() []float64 {
	alt := e.cfg.AltMin + e.rng.Float64()*(e.cfg.AltMax-e.cfg.AltMin)
	glideRange := e.cfg.Airspeed / e.cfg.Descent * alt
	dist := (0.10 + 0.40*e.rng.Float64()) * glideRange
	bearing := e.rng.Float64() * 2 * math.Pi

	e.state = [stateDim]float64{}
	e.state[iPX] = dist * math.Cos(bearing)
	e.state[iPY] = dist * math.Sin(bearing)
	e.state[iAlt] = alt
	e.state[iPsi] = e.rng.Float64() * 2 * math.Pi
	e.state[iPhi] = (e.rng.Float64()*2 - 1) * 0.05

	e.gust = [2]float64{}
	e.updateWind()
	e.t = 0
	e.steps = 0
	e.landed = false
	e.errLvl = 0
	e.errTick = 0
	metricEpisodes.Inc()
	return e.observe()
}

// updateWind refreshes the effective wind: steady component plus decaying
// gusts.
func (e *Env) updateWind() {
	w := e.cfg.Wind
	e.wind = [2]float64{}
	if !w.Enabled {
		return
	}
	e.wind[0] = w.Speed * math.Cos(w.Direction)
	e.wind[1] = w.Speed * math.Sin(w.Direction)
	if w.Gusts {
		// Exponential decay of the previous gust, new gusts with GustProb.
		e.gust[0] *= 0.85
		e.gust[1] *= 0.85
		if e.rng.Float64() < w.GustProb {
			dir := e.rng.Float64() * 2 * math.Pi
			e.gust[0] += w.GustSpeed * math.Cos(dir)
			e.gust[1] += w.GustSpeed * math.Sin(dir)
		}
		e.wind[0] += e.gust[0]
		e.wind[1] += e.gust[1]
	}
}

// rhs is the canopy ODE right-hand side. The brake command and wind are
// read from the Env (set before integration and constant within a control
// step) rather than captured in a closure, so Step allocates nothing: e.f
// is bound once at construction and reused for every solver call.
func (e *Env) rhs(t float64, y, dydt []float64) {
	cfg := &e.cfg
	u, wx, wy := e.u, e.wind[0], e.wind[1]
	// Sincos is bit-identical to separate Sin/Cos calls (same kernels), and
	// sinPhi is reused for the pendulum term, so this halves the trig work —
	// the dominant cost of the RHS — without changing a single result bit.
	sinPhi := math.Sin(y[iPhi])
	sinPsi, cosPsi := math.Sincos(y[iPsi])
	v := cfg.Airspeed * (1 - 0.15*math.Abs(sinPhi))
	dydt[iPX] = v*cosPsi + wx
	dydt[iPY] = v*sinPsi + wy
	dydt[iAlt] = -cfg.Descent * (1 + 0.1*y[iPhi]*y[iPhi])
	dydt[iPsi] = y[iPsiDot]
	dydt[iPsiDot] = cfg.TurnGain*u - cfg.TurnDamp*y[iPsiDot] + 0.15*y[iPhi]
	// Pendulum: gravity restoring + damping + centripetal forcing from
	// the turn.
	dydt[iPhi] = y[iPhiDot]
	dydt[iPhiDot] = -gravity/cfg.PendulumLen*sinPhi -
		cfg.PendulumDamp*y[iPhiDot] +
		y[iPsiDot]*v/cfg.PendulumLen*0.5
}

// Step implements gym.Env. The discrete actions are 0=rotate left,
// 1=straight, 2=rotate right.
func (e *Env) Step(action []float64) gym.StepResult {
	if e.landed {
		panic("airdrop: Step after episode end; call Reset")
	}
	metricSteps.Inc()
	e.u = e.command(action)
	e.updateWind()
	f := e.f

	// Refresh the solver-accuracy estimate periodically using the method's
	// genuine local error (embedded pair, or Richardson for RK8).
	if e.errTick%16 == 0 {
		e.errLvl = e.esterr.Estimate(f, e.t, e.state[:], e.cfg.SolverStep)
	}
	e.errTick++

	// Integrate one control period in fixed solver steps.
	remaining := e.cfg.ControlDt
	for remaining > 1e-9 {
		h := math.Min(e.cfg.SolverStep, remaining)
		e.t = e.stepper.Step(f, e.t, e.state[:], h, e.state[:], e.yerr[:])
		remaining -= h
		if e.state[iAlt] <= 0 {
			break
		}
	}
	e.steps++

	res := gym.StepResult{}
	if e.state[iAlt] <= 0 || e.steps >= e.cfg.MaxSteps {
		e.landed = true
		res.Done = true
		res.Truncated = e.state[iAlt] > 0
		res.Reward = -e.Miss() / e.cfg.RewardScale
	}
	res.Obs = e.observe()
	return res
}

// command maps the action to a brake deflection u in [-1,1].
func (e *Env) command(action []float64) float64 {
	switch int(action[0]) {
	case 0:
		return -1
	case 2:
		return 1
	default:
		return 0
	}
}

// Miss returns the current horizontal distance to the target (the origin).
func (e *Env) Miss() float64 {
	return math.Hypot(e.state[iPX], e.state[iPY])
}

// State returns a copy of the raw physical state (for tools and tests).
func (e *Env) State() []float64 {
	s := make([]float64, stateDim)
	copy(s, e.state[:])
	return s
}

// ErrLevel returns the current solver local-error estimate.
func (e *Env) ErrLevel() float64 { return e.errLvl }

// observe builds the observation: target-relative geometry, heading error,
// canopy rates and the pendulum state, perturbed by the solver-accuracy
// noise.
func (e *Env) observe() []float64 {
	dx := -e.state[iPX] // vector from package to target
	dy := -e.state[iPY]
	dist := math.Hypot(dx, dy)
	bearing := math.Atan2(dy, dx)
	hErr := angleDiff(bearing, e.state[iPsi])
	sinH, cosH := math.Sincos(hErr)
	tgo := e.state[iAlt] / e.cfg.Descent

	// Scales chosen so every component lives in roughly [-3, 3] — the
	// useful range of the tanh policy networks. The buffer is owned by the
	// Env and reused: the returned slice is valid until the next
	// Step/Reset, per the gym.StepResult contract.
	e.obs = [ObsDim]float64{
		dx / 300,
		dy / 300,
		dist / 300,
		sinH,
		cosH,
		e.state[iPsiDot],
		e.state[iPhi],
		e.state[iPhiDot],
		e.state[iAlt] / 300,
		tgo / 150,
	}
	obs := e.obs[:]
	if e.cfg.NoiseGain > 0 && e.errLvl > 0 {
		// Solution-accuracy uncertainty: the solver's local-error estimate
		// is mapped compressively (cube root) to an observation noise
		// scale, so the order-3/5/8 regimes (errors ~1e-3 / 1e-5 / 1e-7)
		// produce graded — not collapsed — landing-precision effects, as
		// in the paper's reward spreads.
		std := e.cfg.NoiseGain * math.Cbrt(e.errLvl)
		for i := range obs {
			obs[i] += e.rng.NormFloat64() * std
		}
	}
	return obs
}

// StepCost implements gym.Costed: the modeled CPU seconds of one control
// step. The per-order costs are calibrated against the paper's published
// computation times (46–85 min for 200k steps on 2–8 cores; DESIGN.md §5).
// They are NOT purely stage-proportional, mirroring the SciPy family the
// paper used: RK23 carries a relatively large method-independent per-step
// overhead, while DOP853 pays extra for its high-order error machinery on
// top of its 12 stages.
func (e *Env) StepCost() float64 {
	substeps := math.Ceil(e.cfg.ControlDt / e.cfg.SolverStep)
	var perStep float64
	switch e.cfg.RKOrder {
	case 3:
		perStep = costOrder3
	case 5:
		perStep = costOrder5
	case 8:
		perStep = costOrder8
	default:
		// Non-paper orders (RK4): interpolate stage-proportionally
		// between the calibrated anchors.
		perStep = costOrder3 + (costOrder5-costOrder3)*
			float64(e.method.Stages()-4)/3.0
	}
	return perStep * substeps / 2 // calibrated at the default 2 substeps
}

// Calibrated per-control-step CPU costs (seconds) at the default solver
// configuration.
const (
	costOrder3 = 0.0471
	costOrder5 = 0.0516
	costOrder8 = 0.0667
)

// angleDiff returns a-b wrapped to (-π, π].
func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Autopilot is a scripted proportional-derivative steering policy used to
// validate the physics and as a non-learning baseline: it turns toward the
// target bearing and, once close, circles to bleed altitude.
type Autopilot struct{}

// Shared, read-only discrete actions returned by Autopilot.Act. Callers
// must not mutate them.
var (
	actLeft     = []float64{0}
	actStraight = []float64{1}
	actRight    = []float64{2}
)

// Act returns the discrete action for obs. The returned slice is shared
// and read-only.
func (Autopilot) Act(obs []float64) []float64 {
	sinE, cosE := obs[3], obs[4]
	hErr := math.Atan2(sinE, cosE)
	psiDot := obs[5]
	dist := obs[2] * 300
	tgo := obs[9] * 150

	u := 1.8*hErr - 1.2*psiDot
	// If we will arrive far too early, spiral to waste altitude.
	if dist < 0.3*tgo*7.5 && dist < 60 && tgo > 20 {
		u = 1
	}
	switch {
	case u > 0.08:
		return actRight
	case u < -0.08:
		return actLeft
	default:
		return actStraight
	}
}
