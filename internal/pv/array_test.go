package pv

import (
	"math"
	"testing"
)

func newTestArray(t *testing.T, n int) *Array {
	t.Helper()
	cells := make([]*Cell, n)
	for i := range cells {
		cells[i] = NewCell()
	}
	a, err := NewArray(cells)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(nil); err == nil {
		t.Error("empty array accepted")
	}
	a := newTestArray(t, 3)
	if len(a.segments) != 3 {
		t.Errorf("segments = %d", len(a.segments))
	}
}

func TestUniformArrayMatchesSeriesOfCells(t *testing.T) {
	// Two identical, equally lit segments: string Voc = 2x cell Voc, string
	// Isc = cell Isc, and the global MPP power = 2x cell MPP power.
	a := newTestArray(t, 2)
	cell := NewCell()
	irr := []float64{1.0, 1.0}

	voc := a.OpenCircuitVoltage(irr)
	if want := 2 * cell.OpenCircuitVoltage(1.0); math.Abs(voc-want) > 5e-3 {
		t.Errorf("string Voc = %.4f, want %.4f", voc, want)
	}
	isc := a.Current(0, irr)
	if want := cell.ShortCircuitCurrent(1.0); math.Abs(isc-want) > 1e-4 {
		t.Errorf("string Isc = %.4g, want %.4g", isc, want)
	}
	_, pArr := a.GlobalMPP(irr)
	_, pCell := cell.MPP(1.0)
	if math.Abs(pArr-2*pCell)/(2*pCell) > 0.02 {
		t.Errorf("string MPP %.4g, want ~%.4g", pArr, 2*pCell)
	}
}

func TestArrayVoltageDecreasesWithCurrent(t *testing.T) {
	a := newTestArray(t, 2)
	irr := []float64{1.0, 0.4}
	prev := math.Inf(1)
	for i := 0.0; i <= 16e-3; i += 0.5e-3 {
		v := a.StringVoltage(i, irr)
		if v > prev+1e-9 {
			t.Fatalf("string voltage not non-increasing at I=%.4g", i)
		}
		prev = v
	}
}

func TestPartialShadingCreatesTwoHumps(t *testing.T) {
	a := newTestArray(t, 2)
	// One segment fully lit, one heavily shaded.
	irr := []float64{1.0, 0.25}
	peaks := a.LocalMPPs(irr)
	if len(peaks) < 2 {
		t.Fatalf("got %d local maxima, want >= 2 under partial shading", len(peaks))
	}
	// Uniform light: a single hump.
	uniform := a.LocalMPPs([]float64{1.0, 1.0})
	if len(uniform) != 1 {
		t.Errorf("uniform light gave %d local maxima, want 1", len(uniform))
	}
}

func TestGlobalMPPBeatsEveryLocalPeak(t *testing.T) {
	a := newTestArray(t, 3)
	irr := []float64{1.0, 0.6, 0.15}
	vGlobal, pGlobal := a.GlobalMPP(irr)
	if pGlobal <= 0 || vGlobal <= 0 {
		t.Fatal("degenerate global MPP")
	}
	for _, v := range a.LocalMPPs(irr) {
		if p := a.Power(v, irr); p > pGlobal*(1+1e-6) {
			t.Errorf("local peak at %.3f V (%.4g W) beats the global MPP (%.4g W)", v, p, pGlobal)
		}
	}
	// And a dense grid cannot beat it either.
	voc := a.OpenCircuitVoltage(irr)
	for k := 1; k < 500; k++ {
		v := voc * float64(k) / 500
		if p := a.Power(v, irr); p > pGlobal*(1+5e-3) {
			t.Fatalf("grid point %.3f V (%.4g W) beats the global MPP (%.4g W)", v, p, pGlobal)
		}
	}
}

func TestBypassDiodeLimitsShadedLoss(t *testing.T) {
	// With a bypass diode, a dark segment costs only the diode drop; the
	// lit segment still delivers. Compare the shaded string's MPP against
	// the single lit cell's.
	a := newTestArray(t, 2)
	_, pShaded := a.GlobalMPP([]float64{1.0, 0.0})
	cell := NewCell()
	_, pCell := cell.MPP(1.0)
	if pShaded < 0.5*pCell {
		t.Errorf("shaded string MPP %.4g W below half the lit cell's %.4g W; bypass diode ineffective", pShaded, pCell)
	}
	// Dark string delivers nothing.
	if _, p := a.GlobalMPP([]float64{0, 0}); p != 0 {
		t.Errorf("dark string delivers %.4g W", p)
	}
}

func TestArrayPowerNonNegative(t *testing.T) {
	a := newTestArray(t, 2)
	irr := []float64{0.8, 0.3}
	voc := a.OpenCircuitVoltage(irr)
	for k := 0; k <= 100; k++ {
		v := voc * 1.2 * float64(k) / 100
		if p := a.Power(v, irr); p < 0 {
			t.Fatalf("negative power %.4g at %.3f V", p, v)
		}
	}
	if a.Power(-0.5, irr) != 0 {
		t.Error("negative voltage should deliver nothing")
	}
}

func TestMissingIrradianceEntriesAreDark(t *testing.T) {
	a := newTestArray(t, 3)
	// Only one irradiance supplied: the other two segments bypass.
	voc := a.OpenCircuitVoltage([]float64{1.0})
	cell := NewCell()
	want := cell.OpenCircuitVoltage(1.0) - 2*0.35
	if math.Abs(voc-want) > 5e-3 {
		t.Errorf("Voc with dark tail = %.4f, want %.4f", voc, want)
	}
}

// BenchmarkGlobalMPP times the global MPP search on ext-shading's graded
// pattern, the body of cmd/benchguard's array_global_mpp entry.
func BenchmarkGlobalMPP(b *testing.B) {
	cells := []*Cell{NewCell(), NewCell(), NewCell()}
	a, err := NewArray(cells)
	if err != nil {
		b.Fatal(err)
	}
	irr := []float64{1.0, 0.5, 0.15}
	for i := 0; i < b.N; i++ {
		_, benchSink = a.GlobalMPP(irr)
	}
}
