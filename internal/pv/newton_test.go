package pv

import (
	"math"
	"math/rand"
	"testing"
)

// sweepVoltages returns a voltage grid covering every solver regime for the
// given cell: short circuit, the power-producing knee, open circuit, and
// far beyond Voc where the current goes negative (including the bracket
// extension region).
func sweepVoltages(c *Cell, irradiance float64) []float64 {
	voc := c.OpenCircuitVoltage(irradiance)
	vs := []float64{-0.5, -1e-9, 0, 1e-9}
	for f := 0.05; f <= 1.30; f += 0.05 {
		vs = append(vs, f*voc)
	}
	// Far beyond Voc: operating currents below -Iph trigger the geometric
	// bracket extension in the reference bisection.
	vs = append(vs, voc+0.1, voc+0.5, 2*voc, 5*voc, 10*voc+1)
	return vs
}

// TestCurrentFastMatchesReference pins the headline guarantee on the
// default calibration: the Newton fast path (stateless and warm-started)
// returns bit-identical values to the reference bisection at every voltage
// and irradiance regime, including beyond-Voc negative currents.
func TestCurrentFastMatchesReference(t *testing.T) {
	c := NewCell()
	for _, irr := range []float64{IndoorDim, IndoorBright, QuarterSun, HalfSun, FullSun, 1e-6, 1e-12} {
		var warm SolverState
		for _, v := range sweepVoltages(c, irr) {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Errorf("Current(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Errorf("CurrentWarm(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
		}
	}
}

// TestCurrentWarmStateIndependence drives one SolverState through a
// deliberately hostile sequence — large voltage jumps, irradiance steps,
// beyond-Voc excursions — and checks that the carried state never changes a
// result: CurrentWarm must equal the stateless solve bit-for-bit no matter
// what the previous operating point was.
func TestCurrentWarmStateIndependence(t *testing.T) {
	c := NewCell()
	var warm SolverState
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 5000; n++ {
		v := rng.Float64()*4 - 0.5            // [-0.5, 3.5) V spans all regimes
		irr := math.Pow(10, -4*rng.Float64()) // [1e-4, 1]
		want := c.CurrentReference(v, irr)
		if got := c.CurrentWarm(v, irr, &warm); got != want {
			t.Fatalf("step %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
		}
	}
}

// TestCurrentWarmTransientProfile mimics the simulator's actual call
// pattern — a capacitor voltage moving by microvolts per step — and checks
// bit-identity along the whole trajectory, plus that the state actually
// warms up.
func TestCurrentWarmTransientProfile(t *testing.T) {
	c := NewCell()
	var warm SolverState
	v := 0.2
	for n := 0; n < 20000; n++ {
		v += 5e-5 * math.Sin(float64(n)/300) // slow charge/discharge wiggle
		want := c.CurrentReference(v, HalfSun)
		if got := c.CurrentWarm(v, HalfSun, &warm); got != want {
			t.Fatalf("step %d: CurrentWarm(%g) = %v, reference %v", n, v, got, want)
		}
	}
	if !warm.warm {
		t.Error("solver state never warmed up over a smooth transient")
	}
}

// randomSolverCell draws a physically plausible calibration with wider
// spread than cache_test.go's randomCell: the ranges cover paper-scale
// modules through larger panels, with enough dynamic range to hit the
// solver's edge regimes.
func randomSolverCell(rng *rand.Rand) *Cell {
	return NewCell(
		WithPhotoCurrent(math.Pow(10, -4+3*rng.Float64())),       // 0.1 mA .. 100 mA
		WithSaturationCurrent(math.Pow(10, -12+6*rng.Float64())), // 1 pA .. 1 uA
		WithIdealityFactor(1+rng.Float64()),                      // 1 .. 2
		WithSeriesCells(1+rng.Intn(6)),                           // 1 .. 6 junctions
		WithSeriesResistance(math.Pow(10, -1+2*rng.Float64())),   // 0.1 .. 10 ohm
		WithShuntResistance(math.Pow(10, 2+3*rng.Float64())),     // 100 .. 100k ohm
	)
}

// TestCurrentFastPropertyRandomCells is the satellite property test: for
// random cell parameters, voltages and irradiances, the fast solve matches
// the reference bisection bit-for-bit (a strictly stronger property than
// the 2e-7*Iph tolerance bound, which is asserted as well against the raw
// Newton root).
func TestCurrentFastPropertyRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3000; n++ {
		c := randomSolverCell(rng)
		irr := math.Pow(10, -3*rng.Float64())
		voc := c.OpenCircuitVoltage(irr)
		var warm SolverState
		for _, v := range []float64{
			-0.2, 0, rng.Float64() * voc, voc, voc * (1 + rng.Float64()), 3*voc + 1,
		} {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Fatalf("cell %d: Current(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Fatalf("cell %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			// Tolerance-scale check on the Newton root itself: the root and
			// the bisection answer must agree far inside 2e-7*Iph — except
			// under negative bias, where the true root can exceed Iph and
			// the reference bracket [-Iph, Iph] clamps at its upper end (it
			// only ever extends downward); the replay reproduces that clamp
			// bit-exactly, so only in-bracket roots are compared here.
			iph := c.photoCurrent(irr)
			// 1e-12 covers the bisection's own final-interval quantization,
			// which dominates for sub-microamp photocurrents.
			if root, ok := c.newtonRoot(v, iph, 0, nil); ok && root <= iph {
				if tol := 2e-7*iph + 1e-12; math.Abs(root-want) > tol {
					t.Fatalf("cell %d: newton root %v vs reference %v exceeds %g", n, root, want, tol)
				}
			}
		}
	}
}

// TestCurrentFastDegenerateFallsBack exercises inputs outside the Newton
// envelope: the fast path must take the reference bisection and still agree
// with it exactly.
func TestCurrentFastDegenerateFallsBack(t *testing.T) {
	cases := []struct {
		name string
		cell *Cell
		v    float64
		irr  float64
	}{
		{"zero photocurrent", NewCell(WithPhotoCurrent(0)), 0.5, 1.0},
		{"NaN voltage", NewCell(), math.NaN(), 1.0},
		{"+Inf voltage", NewCell(), math.Inf(1), 1.0},
		{"negative shunt", NewCell(WithShuntResistance(-100)), 0.5, 1.0},
		{"zero junction scale", NewCell(WithIdealityFactor(0)), 0.5, 1.0},
		{"negative saturation", NewCell(WithSaturationCurrent(-1e-9)), 0.5, 1.0},
	}
	for _, tc := range cases {
		want := tc.cell.CurrentReference(tc.v, tc.irr)
		got := tc.cell.Current(tc.v, tc.irr)
		var warm SolverState
		gotWarm := tc.cell.CurrentWarm(tc.v, tc.irr, &warm)
		same := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		if !same(got, want) || !same(gotWarm, want) {
			t.Errorf("%s: Current=%v CurrentWarm=%v reference=%v", tc.name, got, gotWarm, want)
		}
		if warm.Fallbacks != 1 || warm.BandEvals != 0 {
			t.Errorf("%s: counted %d fallbacks, %d band evals; want 1, 0", tc.name, warm.Fallbacks, warm.BandEvals)
		}
	}
}

// TestZeroSaturationCurrentMatchesReference covers a cell with no diode
// current (I0 = 0) at a diode voltage where exp(vd/s) overflows: the
// reference once took 0*Inf = NaN as the diode current there and bisected
// on NaN signs to 1.03 A, while the fast path, which skips the diode when
// I0 = 0, returned the true Iph/(1+Rs/Rsh).
func TestZeroSaturationCurrentMatchesReference(t *testing.T) {
	c := NewCell(WithPhotoCurrent(0.75), WithSaturationCurrent(0),
		WithSeriesResistance(80), WithShuntResistance(42))
	want := c.CurrentReference(0, 8)
	if exact := 6 / (1 + 80.0/42); math.Abs(want-exact) > 1e-12 {
		t.Errorf("CurrentReference(0, 8) = %v, want %v", want, exact)
	}
	var warm SolverState
	if got, gotWarm := c.Current(0, 8), c.CurrentWarm(0, 8, &warm); got != want || gotWarm != want {
		t.Errorf("Current = %v, CurrentWarm = %v, reference %v", got, gotWarm, want)
	}
}

// TestOperatingPointBranchesUnchanged pins the load-line solver's error
// branches on top of the fast Current: no-operating-point still errors, a
// zero-draw load still floats at Voc.
func TestOperatingPointBranchesUnchanged(t *testing.T) {
	c := NewCell()
	// A load hungrier than the cell's short-circuit current at 0 V.
	if _, err := c.OperatingPoint(0.5, func(float64) float64 { return 1.0 }); err == nil {
		t.Error("hungry load line: want ErrNoOperatingPoint, got nil")
	}
	v, err := c.OperatingPoint(0.5, func(float64) float64 { return 0 })
	if err != nil {
		t.Fatalf("zero load: %v", err)
	}
	// Current(Voc) lands within solver tolerance of zero on either side, so
	// the zero-load solve either returns Voc exactly (floating branch) or
	// bisects to within the voltage tolerance of it.
	if voc := c.OpenCircuitVoltage(0.5); math.Abs(v-voc) > voltageSolveTolerance {
		t.Errorf("zero load floats at %v, want Voc %v (+/- %g)", v, voc, voltageSolveTolerance)
	}
}

// bisectFloat is the floating-point loop bisectBits replaces, with the
// same stopping rules and recording.
func bisectFloat(lo, hi, root, margin, tol float64, iter int, stack *[maxSolverIterations + 1][2]float64) (float64, float64, int, bool) {
	for ; iter < maxSolverIterations && hi-lo > tol; iter++ {
		stack[iter] = [2]float64{lo, hi}
		mid := 0.5 * (lo + hi)
		if math.Abs(mid-root) <= margin {
			return lo, hi, iter, true
		}
		if mid < root {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, iter, false
}

// TestBisectBitsMatchesFloat checks the integer bisection against the
// floating-point loop on random same-binade brackets across the exponent
// range: log-uniform widths (odd ulp sums exercise the ties-to-even fix),
// tolerances that are exact multiples of the ulp (so a level lands on the
// stopping width exactly), roots inside, outside and below zero, and
// guard bands from none to wide.
func TestBisectBitsMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var want, got [maxSolverIterations + 1][2]float64
	for n := 0; n < 20000; n++ {
		e := rng.Intn(2040) - 1020
		base, ulp := math.Ldexp(1, e), math.Ldexp(1, e-52)
		lo := base * (1 + 0.5*rng.Float64())
		width := float64(1+rng.Int63n(1<<uint(1+rng.Intn(50)))) * ulp
		hi := lo + width
		if !sameBinade(lo, hi) {
			t.Fatalf("bracket [%v, %v] left its binade", lo, hi)
		}
		var tol float64
		switch rng.Intn(3) {
		case 0:
			tol = math.Floor(rng.Float64()*width/ulp) * ulp
		case 1:
			tol = rng.Float64() * width
		}
		var root float64
		switch rng.Intn(4) {
		case 0:
			root = lo + rng.Float64()*width
		case 1:
			root = lo + (2*rng.Float64()-0.5)*width
		case 2:
			root = 0.5 * (lo + hi) // the first probe itself
		case 3:
			root = -rng.Float64() * hi
		}
		margin := 0.0
		if rng.Intn(2) == 0 {
			margin = math.Ldexp(rng.Float64(), -rng.Intn(60)) * width
		}
		wl, wh, wi, wb := bisectFloat(lo, hi, root, margin, tol, 3, &want)
		gl, gh, gi, gb := bisectBits(lo, hi, root, margin, tol, 3, &got)
		if gl != wl || gh != wh || gi != wi || gb != wb || got != want {
			t.Fatalf("bracket [%v, %v] root %v margin %v tol %v: bits [%v, %v] at %d band %v, float [%v, %v] at %d band %v",
				lo, hi, root, margin, tol, gl, gh, gi, gb, wl, wh, wi, wb)
		}
	}
}

// TestSameBinade pins the integer bisection's precondition at its edges.
func TestSameBinade(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		want   bool
	}{
		{1, 1.5, true},
		{1, math.Nextafter(2, 0), true},
		{0.75, 1, false},
		{0, 1e-300, false},
		{-1.5, -1, false},
		{-1, 1, false},
		{5e-324, 1e-323, false}, // subnormal
		{0x1p-1022, 0x1.8p-1022, true},
		{0x1p1022, 0x1.8p1022, true},
		{0x1p1023, math.MaxFloat64, false}, // lo+hi would overflow
		{math.Inf(1), math.Inf(1), false},
	} {
		if got := sameBinade(tc.lo, tc.hi); got != tc.want {
			t.Errorf("sameBinade(%v, %v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// FuzzCurrentSolverParity fuzzes cell parameters and inputs: whatever the
// values, the fast path (stateless and warm) must return exactly what the
// reference bisection returns.
func FuzzCurrentSolverParity(f *testing.F) {
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 1.0, 0.5)
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 1.45) // just above Voc
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 15.0) // bracket extension
	f.Add(1e-4, 1e-12, 1.0, 1, 0.1, 100.0, 1e-3, 0.0)     // short circuit
	f.Add(0.1, 1e-6, 2.0, 6, 10.0, 1e5, 1.0, -0.3)        // negative bias
	f.Add(16e-3, 9.5e-8, 1.5, 3, 0.0, 3000.0, 1.0, 0.5)   // Rs = 0 direct path
	f.Fuzz(func(t *testing.T, iph, i0, n float64, ns int, rs, rsh, irr, v float64) {
		// Clamp to the physically sane envelope; the fuzzer's job is to
		// explore solver regimes, not to feed NaN cell calibrations (those
		// are covered by TestCurrentFastDegenerateFallsBack).
		if !(iph >= 0 && iph <= 1) || !(i0 >= 0 && i0 <= 1e-3) ||
			!(n >= 0.5 && n <= 4) || ns < 1 || ns > 10 ||
			!(rs >= 0 && rs <= 100) || !(rsh >= 1 && rsh <= 1e7) ||
			!(irr >= 0 && irr <= 10) || !(v >= -10 && v <= 50) {
			t.Skip()
		}
		c := NewCell(
			WithPhotoCurrent(iph), WithSaturationCurrent(i0),
			WithIdealityFactor(n), WithSeriesCells(ns),
			WithSeriesResistance(rs), WithShuntResistance(rsh),
		)
		want := c.CurrentReference(v, irr)
		if got := c.Current(v, irr); got != want {
			t.Fatalf("Current(%g, %g) = %v, reference %v", v, irr, got, want)
		}
		var warm SolverState
		for i := 0; i < 3; i++ { // re-solve with carried state
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Fatalf("CurrentWarm pass %d (%g, %g) = %v, reference %v", i, v, irr, got, want)
			}
		}
	})
}

// FuzzCurrentWarmSequence carries one SolverState through a short sequence
// of (v, irradiance) pairs: irradiance changes on every call in the seeded
// shapes, and a call may resume from a bracket stack recorded at another
// voltage. Every result must equal the reference bisection.
func FuzzCurrentWarmSequence(f *testing.F) {
	// Default calibration; irradiance drifting by a hair per call, as an
	// interpolated weather trace does, around the knee.
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 0.95, 0.8, 1e-6, 1e-7, uint8(8))
	// The same walk at constant irradiance: the resume path.
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 0.95, 0.8, 1e-6, 0.0, uint8(8))
	// Tiny photocurrents: subnormal, then normal but far below 1e-12 A.
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 0.3, 1e-308, 1e-3, 1e-309, uint8(6))
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 0.0, 1e-12, 0.0, 1e-13, uint8(6))
	// Roots exactly on a power of two: with no diode, Iph = 0.75 A,
	// Rs = 2 and Rsh = 4 put I* = 0.5 A at 0 V; at V = -Rs*Iph the diode
	// voltage is 0 and I* = Iph = 1 A, the bracket's upper end.
	f.Add(0.75, 0.0, 2.0, 4.0, 0.0, 1.0, 0.0, 0.0, uint8(4))
	f.Add(0.75, 0.0, 2.0, 4.0, 0.0, 1.0, 1e-9, 0.25, uint8(4))
	f.Add(1.0, 0.0, 1e-3, 1e7, -1e-3, 1.0, 0.0, 0.0, uint8(4))
	// No diode current with exp(vd/s) overflowing.
	f.Add(0.75, 0.0, 80.0, 42.0, 0.0, 8.0, 6.75e-9, 0.25, uint8(2))
	// Beyond Voc: negative roots, then the bracket extension.
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 1.45, 0.25, 0.5, 0.05, uint8(8))
	f.Add(16e-3, 9.5e-8, 2.0, 3000.0, 15.0, 0.25, -1.0, 0.1, uint8(8))
	f.Fuzz(func(t *testing.T, iph, i0, rs, rsh, v0, irr0, dv, dirr float64, steps uint8) {
		if !(iph > 0 && iph <= 1) || !(i0 >= 0 && i0 <= 1e-3) ||
			!(rs > 0 && rs <= 100) || !(rsh >= 1 && rsh <= 1e7) ||
			!(v0 >= -10 && v0 <= 50) || !(irr0 > 0 && irr0 <= 10) ||
			!(math.Abs(dv) <= 1) || !(math.Abs(dirr) <= 1) {
			t.Skip()
		}
		c := NewCell(
			WithPhotoCurrent(iph), WithSaturationCurrent(i0),
			WithSeriesResistance(rs), WithShuntResistance(rsh),
		)
		var warm SolverState
		for k := 0; k < 1+int(steps%16); k++ {
			// The voltage walks 0, dv, 2dv, 0, ... so later calls resume
			// from brackets recorded at a neighbouring voltage.
			v := v0 + float64(k%3)*dv
			irr := irr0 + float64(k)*dirr
			if !(irr > 0 && irr <= 10) || !(v >= -10 && v <= 50) {
				break
			}
			if got, want := c.CurrentWarm(v, irr, &warm), c.CurrentReference(v, irr); got != want {
				t.Fatalf("call %d: CurrentWarm(%g, %g) = %v, reference %v", k, v, irr, got, want)
			}
		}
	})
}

// --- Benchmarks: the kernel-level speedup the PR claims. ---

// rampVoltage mimics one simulation step's voltage motion: microvolt-scale
// movement around the knee of the I-V curve.
func rampVoltage(i int) float64 {
	return 0.95 + 1e-6*float64(i%1000)
}

// BenchmarkCellCurrentWarm measures the warm-started Newton solve on a
// slowly moving voltage — the transient simulator's exact call pattern.
func BenchmarkCellCurrentWarm(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), 0.8, &warm)
	}
	benchSink = sink
}

// rampIrradiance moves irradiance a hair every call, as an interpolated
// weather trace does between steps: the photocurrent changes each solve, so
// the replay cannot resume from the previous trajectory.
func rampIrradiance(i int) float64 {
	return 0.8 + 1e-7*float64(i%1000)
}

// BenchmarkCellCurrentWarmVarying measures the warm solve when irradiance
// changes every call: warm Newton, then the replay from the full bracket.
func BenchmarkCellCurrentWarmVarying(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), rampIrradiance(i), &warm)
	}
	benchSink = sink
}

// BenchmarkCellCurrentCold measures the stateless fast path (Newton from a
// cold start plus replay) on the same voltage profile.
func BenchmarkCellCurrentCold(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.Current(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// BenchmarkCellCurrentReference measures the original bisection — the
// baseline the warm path must beat by >= 5x.
func BenchmarkCellCurrentReference(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentReference(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination in the benchmarks above.
var benchSink float64
