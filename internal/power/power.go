// Package power models CPU power draw and energy accounting for the
// virtual cluster. The paper measures power consumption "based on the CPU
// usage, computed as an equivalence with a consumption curve of the CPU";
// this package is exactly that consumption curve plus an integrator that
// turns utilization-over-virtual-time into joules.
package power

import (
	"fmt"
	"sort"
)

// Point is one (utilization, watts) sample of a consumption curve.
type Point struct {
	Util  float64 // CPU utilization in [0, 1]
	Watts float64
}

// Curve is a piecewise-linear CPU consumption curve. Points must be sorted
// by Util with Util[0] == 0 and Util[last] == 1.
type Curve struct {
	points []Point
}

// NewCurve validates and returns a curve over the given points.
func NewCurve(points []Point) (Curve, error) {
	if len(points) < 2 {
		return Curve{}, fmt.Errorf("power: curve needs at least 2 points")
	}
	if !sort.SliceIsSorted(points, func(i, j int) bool { return points[i].Util < points[j].Util }) {
		return Curve{}, fmt.Errorf("power: curve points must be sorted by utilization")
	}
	//lint:ignore float-eq a curve's endpoints are declared, not computed: exactly 1 is the contract
	if points[0].Util != 0 || points[len(points)-1].Util != 1 {
		return Curve{}, fmt.Errorf("power: curve must span utilization 0..1")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Watts < points[i-1].Watts {
			return Curve{}, fmt.Errorf("power: curve must be non-decreasing")
		}
	}
	return Curve{points: points}, nil
}

// MustCurve is NewCurve that panics on error (for package-level defaults).
func MustCurve(points []Point) Curve {
	c, err := NewCurve(points)
	if err != nil {
		panic(err)
	}
	return c
}

// XeonW2102 returns the consumption curve used for the paper's nodes
// (Intel Xeon W-2102, 4 cores): ~10 W idle rising to ~42 W with all cores
// busy, slightly concave as typical for package power.
func XeonW2102() Curve {
	return MustCurve([]Point{
		{0, 10},
		{0.25, 21},
		{0.5, 29},
		{0.75, 36},
		{1, 42},
	})
}

// Watts returns the interpolated power draw at utilization u (clamped to
// [0, 1]).
func (c Curve) Watts(u float64) float64 {
	if u <= 0 {
		return c.points[0].Watts
	}
	if u >= 1 {
		return c.points[len(c.points)-1].Watts
	}
	for i := 1; i < len(c.points); i++ {
		if u <= c.points[i].Util {
			lo, hi := c.points[i-1], c.points[i]
			f := (u - lo.Util) / (hi.Util - lo.Util)
			return lo.Watts + f*(hi.Watts-lo.Watts)
		}
	}
	return c.points[len(c.points)-1].Watts
}

// IdleWatts returns the idle draw.
func (c Curve) IdleWatts() float64 { return c.points[0].Watts }

// MaxWatts returns the full-load draw.
func (c Curve) MaxWatts() float64 { return c.points[len(c.points)-1].Watts }

// Meter integrates energy over (utilization, duration) intervals.
// The zero value is unusable; construct with NewMeter.
type Meter struct {
	curve   Curve
	joules  float64
	seconds float64
}

// NewMeter returns a Meter over curve.
func NewMeter(curve Curve) *Meter { return &Meter{curve: curve} }

// Add accounts d seconds at utilization u. Negative durations panic.
func (m *Meter) Add(u, d float64) {
	if d < 0 {
		panic("power: negative duration")
	}
	m.joules += m.curve.Watts(u) * d
	m.seconds += d
}

// Joules returns the accumulated energy.
func (m *Meter) Joules() float64 { return m.joules }

// KiloJoules returns the accumulated energy in kJ.
func (m *Meter) KiloJoules() float64 { return m.joules / 1000 }

// Seconds returns the accounted time.
func (m *Meter) Seconds() float64 { return m.seconds }
