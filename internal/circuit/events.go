package circuit

import "math"

// EventSource is the event-horizon view of an irradiance signal: At is
// the signal itself and NextChange tells the stepper how far ahead the
// signal is provably constant, so spans where nothing can change may be
// fast-forwarded without executing each step.
//
// NextChange(t) returns a time T such that At is constant (bitwise: the
// same float64 value) on the half-open interval [t, T). Returning
// T <= t makes no claim and disables fast-forward at t; returning +Inf
// claims the signal never changes again. Implementations must be
// conservative: claiming constancy over a span where the value differs
// in even one bit breaks the simulator's byte-identity guarantee.
type EventSource interface {
	At(t float64) float64
	NextChange(t float64) float64
}

// Quiescent is an optional controller capability used by event-horizon
// fast-forward. QuiescentUntil(s) returns a time T promising that, as
// long as the circuit state observable through s stays bitwise frozen
// and OnStep is NOT called, every step before T would have left the
// controller's commands, internal latches, and trace output exactly as
// they are now. SetProfilePhase counts as a command: a controller that
// would switch its profile phase at some step must return a horizon no
// later than that step (sched.DeadlineController stops at its sprint
// handoff), so the phase switch executes verbatim and a profiled run's
// ledger sees it on time. Returning T <= s.Time() makes no claim (no
// skip).
//
// Controllers that do not implement Quiescent are never fast-forwarded
// — the conservative default is verbatim stepping.
type Quiescent interface {
	QuiescentUntil(s *State) float64
}

// Constant is a time-invariant irradiance source. It is the
// EventSource form of ConstantIrradiance.
type Constant struct {
	Level float64 // W/m^2
}

// At returns the constant level.
func (c Constant) At(t float64) float64 { return c.Level }

// NextChange reports that a constant never changes.
func (c Constant) NextChange(t float64) float64 { return math.Inf(1) }

// StepSource switches from Before to After at T0. It is the
// EventSource form of StepIrradiance.
type StepSource struct {
	Before, After float64 // W/m^2
	T0            float64 // s
}

// At returns Before for t < T0 and After from T0 on.
func (s StepSource) At(t float64) float64 {
	if t < s.T0 {
		return s.Before
	}
	return s.After
}

// NextChange returns T0 before the step and +Inf after it.
func (s StepSource) NextChange(t float64) float64 {
	if t < s.T0 {
		return s.T0
	}
	return math.Inf(1)
}

// DaySource is a half-sine diurnal arc between Sunrise and Sunset with
// the given Peak. It is the EventSource form of DayIrradiance.
type DaySource struct {
	Sunrise, Sunset float64 // s
	Peak            float64 // W/m^2
}

// At returns the half-sine irradiance, zero outside daylight.
func (d DaySource) At(t float64) float64 {
	if t <= d.Sunrise || t >= d.Sunset || d.Sunset <= d.Sunrise {
		return 0
	}
	phase := (t - d.Sunrise) / (d.Sunset - d.Sunrise)
	return d.Peak * math.Sin(math.Pi*phase)
}

// NextChange claims constancy only over the exactly-zero night spans;
// during daylight the arc varies continuously, so no claim is made.
func (d DaySource) NextChange(t float64) float64 {
	if d.Sunset <= d.Sunrise {
		return math.Inf(1) // degenerate day: always dark
	}
	if t < d.Sunrise {
		return d.Sunrise
	}
	if t >= d.Sunset {
		return math.Inf(1)
	}
	return t // inside the arc: varies continuously
}

// PiecewiseConstSource holds Levels[i] on [Times[i], Times[i+1]) and
// Levels[n-1] from Times[n-1] on; before Times[0] it returns Levels[0].
// Unlike PiecewiseIrradiance it does NOT interpolate, which is what
// makes every span exactly constant and therefore fast-forwardable.
// Times must be sorted ascending.
type PiecewiseConstSource struct {
	Times  []float64 // s, sorted ascending
	Levels []float64 // W/m^2, same length as Times
}

// At returns the level of the segment containing t.
func (p PiecewiseConstSource) At(t float64) float64 {
	if len(p.Times) == 0 {
		return 0
	}
	// Last segment whose start is <= t; before the first start, clamp.
	i := 0
	for i+1 < len(p.Times) && p.Times[i+1] <= t {
		i++
	}
	return p.Levels[i]
}

// NextChange returns the start of the next segment after t.
func (p PiecewiseConstSource) NextChange(t float64) float64 {
	for _, start := range p.Times {
		if start > t {
			return start
		}
	}
	return math.Inf(1)
}
