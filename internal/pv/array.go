package pv

import (
	"errors"
	"math"
)

// Array errors.
var (
	// ErrNoSegments indicates an array built with no segments.
	ErrNoSegments = errors.New("pv: array needs at least one segment")
)

// Array is a series string of cell segments, each with its own irradiance
// and a bypass diode across it — the standard construction of larger
// harvesting panels. Under partial shading the bypass diodes carry the
// string current around shaded segments, which produces the well-known
// multi-hump P-V curve: the single-cell assumption of a unimodal power
// curve breaks, and MPP tracking must search globally. Construct with
// NewArray.
type Array struct {
	segments    []*Cell
	maxSegmentI float64 // cached search bound (A)
}

// bypassDrop is the forward drop of each bypass diode (V).
const bypassDrop = 0.35

// NewArray builds a series string over the given segments.
func NewArray(segments []*Cell) (*Array, error) {
	if len(segments) == 0 {
		return nil, ErrNoSegments
	}
	return &Array{segments: segments}, nil
}

// stringSolver caches per-segment open-circuit voltages and short-circuit
// currents for one irradiance vector, so the nested bisections of the
// public methods do not re-derive them at every probe. It also carries one
// direct-solve state per segment (solves), which warm-starts each
// segment's V(I) solve from its previous root: the scans and bisections of
// the public methods probe neighbouring currents in long runs.
type stringSolver struct {
	arr    *Array
	irrs   []float64
	vocs   []float64
	iscs   []float64
	solves []segmentSolve

	// reference routes every segment solve through
	// segmentVoltageReference; the parity tests use it as the oracle for
	// whole-string results.
	reference bool
}

func (a *Array) newSolver(irradiances []float64) *stringSolver {
	n := len(a.segments)
	s := &stringSolver{
		arr:    a,
		irrs:   make([]float64, n),
		vocs:   make([]float64, n),
		iscs:   make([]float64, n),
		solves: make([]segmentSolve, n),
	}
	for i, cell := range a.segments {
		if i < len(irradiances) && irradiances[i] > 0 {
			s.irrs[i] = irradiances[i]
			s.vocs[i] = cell.OpenCircuitVoltage(s.irrs[i])
			s.iscs[i] = cell.ShortCircuitCurrent(s.irrs[i])
		}
	}
	return s
}

// segmentVoltage returns the voltage across segment i when the string
// carries `current`: the cell's own voltage if it can source the current,
// otherwise the bypass diode clamps it at -bypassDrop. The result is
// bit-identical to segmentVoltageReference; see segmentSolve for how.
func (s *stringSolver) segmentVoltage(i int, current float64) float64 {
	if s.irrs[i] <= 0 || current >= s.iscs[i] {
		// Dark or over-driven: the bypass diode conducts.
		return -bypassDrop
	}
	if s.reference {
		return s.segmentVoltageReference(i, current)
	}
	seg := &s.solves[i]
	if !seg.ready {
		seg.init(s.arr.segments[i], s.irrs[i], s.vocs[i], s.iscs[i])
	}
	if seg.direct && isFinite(current) {
		if vstar, band, ok := seg.solve(current); ok {
			return seg.replay(s.arr.segments[i], s.irrs[i], s.vocs[i], current, vstar, band)
		}
	}
	return s.segmentVoltageReference(i, current)
}

// segmentVoltageReference is the original segment solve, kept verbatim as
// the fallback and the correctness oracle: bisection on V over [0, Voc]
// with a full Cell.Current solve at every probe. Callers have already
// handled the dark and bypassed cases.
func (s *stringSolver) segmentVoltageReference(i int, current float64) float64 {
	cell := s.arr.segments[i]
	lo, hi := 0.0, s.vocs[i]
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		mid := 0.5 * (lo + hi)
		if cell.Current(mid, s.irrs[i]) > current {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// stringVoltage sums the segment voltages at the given string current.
func (s *stringSolver) stringVoltage(current float64) float64 {
	var sum float64
	for i := range s.arr.segments {
		sum += s.segmentVoltage(i, current)
	}
	return sum
}

// current inverts stringVoltage (monotone decreasing) at terminal voltage v.
func (s *stringSolver) current(v float64) float64 {
	maxIsc := 0.0
	for _, isc := range s.iscs {
		if isc > maxIsc {
			maxIsc = isc
		}
	}
	if maxIsc == 0 {
		return 0
	}
	if s.stringVoltage(0) <= v {
		return 0 // at or beyond open circuit
	}
	lo, hi := 0.0, maxIsc
	for iter := 0; iter < maxSolverIterations && hi-lo > 1e-8; iter++ {
		mid := 0.5 * (lo + hi)
		if s.stringVoltage(mid) > v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// StringVoltage returns the terminal voltage (V) of the whole string when
// it carries `current` amps. irradiances must have one entry per segment;
// missing or non-positive entries are treated as dark (bypassed).
func (a *Array) StringVoltage(current float64, irradiances []float64) float64 {
	return a.newSolver(irradiances).stringVoltage(current)
}

// Current returns the string current (A) at terminal voltage v under the
// per-segment irradiances, found by bisection on the monotone (decreasing)
// StringVoltage(current) relation. Voltages above the string's open
// circuit return 0.
func (a *Array) Current(v float64, irradiances []float64) float64 {
	return a.newSolver(irradiances).current(v)
}

// power evaluates delivered power on a prepared solver.
func (s *stringSolver) power(v float64) float64 {
	if v <= 0 {
		return 0
	}
	i := s.current(v)
	if i <= 0 {
		return 0
	}
	return v * i
}

// Power returns the delivered power (W) at terminal voltage v.
func (a *Array) Power(v float64, irradiances []float64) float64 {
	return a.newSolver(irradiances).power(v)
}

// OpenCircuitVoltage returns the string's Voc (V).
func (a *Array) OpenCircuitVoltage(irradiances []float64) float64 {
	return a.StringVoltage(0, irradiances)
}

// GlobalMPP finds the global maximum power point of the possibly
// multi-humped P-V curve by dense scan plus local golden-section
// refinement — a golden-section search alone can lock onto the wrong hump
// under partial shading.
func (a *Array) GlobalMPP(irradiances []float64) (voltage, power float64) {
	return a.newSolver(irradiances).globalMPP()
}

func (s *stringSolver) globalMPP() (voltage, power float64) {
	voc := s.stringVoltage(0)
	if voc <= 0 {
		return 0, 0
	}
	const scanPoints = 300
	bestV, bestP := 0.0, 0.0
	for k := 1; k < scanPoints; k++ {
		v := voc * float64(k) / scanPoints
		if p := s.power(v); p > bestP {
			bestV, bestP = v, p
		}
	}
	// Refine around the best scan point.
	step := voc / scanPoints
	lo, hi := math.Max(0, bestV-step), math.Min(voc, bestV+step)
	const invPhi = 0.6180339887498949
	x1 := hi - invPhi*(hi-lo)
	x2 := lo + invPhi*(hi-lo)
	f1, f2 := s.power(x1), s.power(x2)
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + invPhi*(hi-lo)
			f2 = s.power(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - invPhi*(hi-lo)
			f1 = s.power(x1)
		}
	}
	v := 0.5 * (lo + hi)
	if p := s.power(v); p > bestP {
		return v, p
	}
	return bestV, bestP
}

// LocalMPPs returns the voltages of all local power maxima found on a
// dense scan — under partial shading there is one per differently-lit
// segment group. Useful for demonstrating why local hill climbing fails.
func (a *Array) LocalMPPs(irradiances []float64) []float64 {
	return a.newSolver(irradiances).localMPPs()
}

func (s *stringSolver) localMPPs() []float64 {
	voc := s.stringVoltage(0)
	if voc <= 0 {
		return nil
	}
	const scanPoints = 300
	powers := make([]float64, scanPoints+1)
	for k := 0; k <= scanPoints; k++ {
		powers[k] = s.power(voc * float64(k) / scanPoints)
	}
	var peaks []float64
	for k := 1; k < scanPoints; k++ {
		if powers[k] > powers[k-1] && powers[k] >= powers[k+1] && powers[k] > 1e-9 {
			peaks = append(peaks, voc*float64(k)/scanPoints)
		}
	}
	return peaks
}
