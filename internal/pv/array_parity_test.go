package pv

import (
	"math"
	"testing"
)

// Parity of the direct segment solve (segment.go) with the reference
// bisection: every string-level result must be bit-identical.

// parityCells are the calibrations the table test runs: the default cell
// and non-default Rs, Rsh, I0 and ideality.
var parityCells = map[string]func() *Cell{
	"default":    func() *Cell { return NewCell() },
	"rs=0":       func() *Cell { return NewCell(WithSeriesResistance(0)) },
	"rs=25":      func() *Cell { return NewCell(WithSeriesResistance(25)) },
	"rsh=50":     func() *Cell { return NewCell(WithShuntResistance(50)) },
	"rsh=1e7":    func() *Cell { return NewCell(WithShuntResistance(1e7)) },
	"i0=1e-12":   func() *Cell { return NewCell(WithSaturationCurrent(1e-12)) },
	"n=1.1,ns=1": func() *Cell { return NewCell(WithIdealityFactor(1.1), WithSeriesCells(1)) },
}

// parityPatterns span irradiances from 1e-3 to 1 with dark (zero, negative)
// and missing entries.
var parityPatterns = [][]float64{
	{1, 1, 1},
	{1, 0.5, 0.15},
	{1e-3, 1, 0.3},
	{0.01, 0, 1},
	{-1, 0.7, 1e-3},
	{0.6},
	{1e-3, 1e-3, 1e-3},
}

func newParityArray(t testing.TB, mk func() *Cell) *Array {
	t.Helper()
	a, err := NewArray([]*Cell{mk(), mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// parityCurrents returns string currents that exercise every regime: a
// grid across [0, max Isc], zero, a negative current (a segment beyond
// Voc), and each segment's Isc and the floats just below it, where the
// bypass diode takes over.
func parityCurrents(s *stringSolver) []float64 {
	maxIsc := 0.0
	for _, isc := range s.iscs {
		maxIsc = math.Max(maxIsc, isc)
	}
	cs := []float64{0, -1e-4, math.Copysign(0, -1)}
	for k := 1; k <= 16; k++ {
		cs = append(cs, maxIsc*float64(k)/16)
	}
	for _, isc := range s.iscs {
		below := math.Nextafter(isc, math.Inf(-1))
		cs = append(cs, isc, below, math.Nextafter(below, math.Inf(-1)), isc*(1-1e-9), isc*(1-1e-6))
	}
	return cs
}

// checkStringParity compares the direct and reference paths of one
// solver at the given currents and terminal voltages.
func checkStringParity(t testing.TB, a *Array, irr, currents, voltages []float64) {
	t.Helper()
	fast, ref := a.newSolver(irr), a.newSolver(irr)
	ref.reference = true
	for _, c := range currents {
		for i := range a.segments {
			if got, want := fast.segmentVoltage(i, c), ref.segmentVoltage(i, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("irr %v: segmentVoltage(%d, %v) = %v, reference %v", irr, i, c, got, want)
			}
		}
		if got, want := fast.stringVoltage(c), ref.stringVoltage(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("irr %v: stringVoltage(%v) = %v, reference %v", irr, c, got, want)
		}
	}
	for _, v := range voltages {
		if got, want := fast.current(v), ref.current(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("irr %v: current(%v) = %v, reference %v", irr, v, got, want)
		}
	}
}

func TestArraySolveParity(t *testing.T) {
	for name, mk := range parityCells {
		a := newParityArray(t, mk)
		for _, irr := range parityPatterns {
			s := a.newSolver(irr)
			voc := s.stringVoltage(0)
			checkStringParity(t, a, irr, parityCurrents(s), []float64{0, 0.25 * voc, 0.5 * voc, 0.9 * voc, voc})
		}
		t.Logf("%s: segment and string solves match the reference", name)
	}
}

// TestArrayMPPParity runs the full searches, which make thousands of
// segment solves, on both paths. The reference costs ~0.2 s per search,
// so it covers the shading patterns on the default cell and one graded
// pattern on each other calibration.
func TestArrayMPPParity(t *testing.T) {
	type tc struct {
		cell string
		irr  []float64
	}
	var cases []tc
	for _, irr := range parityPatterns[:4] {
		cases = append(cases, tc{"default", irr})
	}
	for name := range parityCells {
		if name != "default" {
			cases = append(cases, tc{name, []float64{1, 0.5, 0.15}})
		}
	}
	for _, c := range cases {
		a := newParityArray(t, parityCells[c.cell])
		fast, ref := a.newSolver(c.irr), a.newSolver(c.irr)
		ref.reference = true
		gv, gp := fast.globalMPP()
		wv, wp := ref.globalMPP()
		if math.Float64bits(gv) != math.Float64bits(wv) || math.Float64bits(gp) != math.Float64bits(wp) {
			t.Errorf("%s %v: GlobalMPP = (%v, %v), reference (%v, %v)", c.cell, c.irr, gv, gp, wv, wp)
		}
		got, want := a.newSolver(c.irr).localMPPs(), ref.localMPPs()
		if len(got) != len(want) {
			t.Fatalf("%s %v: LocalMPPs = %v, reference %v", c.cell, c.irr, got, want)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s %v: LocalMPPs = %v, reference %v", c.cell, c.irr, got, want)
				break
			}
		}
	}
}

// TestSegmentSolveTakesDirectPath pins that the default cell's segments
// run the direct solve, not the fallback, across the whole current range:
// a loss of speed the parity tests above would not notice.
func TestSegmentSolveTakesDirectPath(t *testing.T) {
	a := newParityArray(t, parityCells["default"])
	s := a.newSolver([]float64{1, 0.5, 0.15})
	for i := range a.segments {
		for k := 0; k < 200; k++ {
			current := s.iscs[i] * float64(k) / 200
			s.segmentVoltage(i, current)
			seg := &s.solves[i]
			if !seg.direct {
				t.Fatalf("segment %d: direct path disabled for the default cell", i)
			}
			if _, _, ok := seg.solve(current); !ok {
				t.Fatalf("segment %d: Newton did not certify a root at I=%v", i, current)
			}
		}
	}
}

// FuzzArraySolveParity fuzzes cell calibration, a two-segment irradiance
// pattern, a string current and a terminal voltage: the direct path must
// match the reference bit for bit at the fuzzed point, at each segment's
// Isc and just below it.
func FuzzArraySolveParity(f *testing.F) {
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 1.0, 0.5, 4e-3, 1.5)
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 1e-3, 1.0, 1.5e-5, 0.5)
	f.Add(16e-3, 9.5e-8, 0.0, 3000.0, 0.3, 0.0, 1e-3, 0.2) // Rs = 0, one dark
	f.Add(0.1, 1e-6, 10.0, 1e5, 1.0, 0.25, -1e-3, 3.0)     // negative current
	f.Add(1e-4, 1e-12, 0.1, 100.0, 0.05, 0.9, 5e-7, 0.0)
	f.Fuzz(func(t *testing.T, iph, i0, rs, rsh, irr0, irr1, current, v float64) {
		if !(iph > 0 && iph <= 1) || !(i0 >= 0 && i0 <= 1e-3) ||
			!(rs >= 0 && rs <= 100) || !(rsh >= 1 && rsh <= 1e7) ||
			!(irr0 >= -1 && irr0 <= 2) || !(irr1 >= -1 && irr1 <= 2) ||
			!(current >= -1 && current <= 1) || !(v >= -1 && v <= 10) {
			t.Skip()
		}
		mk := func() *Cell {
			return NewCell(WithPhotoCurrent(iph), WithSaturationCurrent(i0),
				WithSeriesResistance(rs), WithShuntResistance(rsh))
		}
		a, err := NewArray([]*Cell{mk(), mk()})
		if err != nil {
			t.Fatal(err)
		}
		irr := []float64{irr0, irr1}
		s := a.newSolver(irr)
		currents := []float64{current}
		for _, isc := range s.iscs {
			below := math.Nextafter(isc, math.Inf(-1))
			currents = append(currents, isc, below, isc*(1-1e-9))
		}
		checkStringParity(t, a, irr, currents, []float64{v})
	})
}
