package cpu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCalibration(t *testing.T) {
	p := NewProcessor()
	// Nominal point: 1 GHz at 1.0 V.
	if f := p.MaxFrequency(1.0); math.Abs(f-1e9) > 1e3 {
		t.Errorf("f(1.0 V) = %.4g Hz, want 1 GHz", f)
	}
	// ~15 ms for a 64x64 frame at 0.5 V needs ~300 MHz there.
	if f := p.MaxFrequency(0.5); f < 250e6 || f > 400e6 {
		t.Errorf("f(0.5 V) = %.1f MHz, want 250-400 MHz", f/1e6)
	}
	// SC full-load corner: ~10 mW at 0.55 V full speed.
	if pw := p.MaxPower(0.55); pw < 8e-3 || pw > 14e-3 {
		t.Errorf("P(0.55 V) = %.2f mW, want 8-14 mW", pw*1e3)
	}
	// Conventional MEP near 0.4 V, strictly inside the range (Fig. 7b/11a).
	v, e := p.ConventionalMEP()
	if v < p.MinVoltage()+0.01 || v > 0.5 {
		t.Errorf("conventional MEP = %.3f V, want interior value near 0.4 V", v)
	}
	if e <= 0 || math.IsInf(e, 0) {
		t.Errorf("MEP energy = %g", e)
	}
}

func TestMaxFrequencyMonotone(t *testing.T) {
	p := NewProcessor()
	prev := -1.0
	for v := 0.0; v <= 1.2; v += 0.01 {
		f := p.MaxFrequency(v)
		if f < prev {
			t.Fatalf("fmax not non-decreasing at %.2f V", v)
		}
		prev = f
	}
	if f := p.MaxFrequency(p.thresholdVoltage); f != 0 {
		t.Errorf("f at threshold = %g, want 0", f)
	}
	if f := p.MaxFrequency(0.1); f != 0 {
		t.Errorf("f below threshold = %g, want 0", f)
	}
}

func TestPowerComponents(t *testing.T) {
	p := NewProcessor()
	v := 0.6
	f := p.MaxFrequency(v)
	dyn := p.DynamicPower(v, f)
	leak := p.LeakagePower(v)
	tot := p.Power(v, f)
	if math.Abs(tot-dyn-leak) > 1e-12 {
		t.Errorf("P != Pdyn + Pleak: %g vs %g + %g", tot, dyn, leak)
	}
	// Dynamic power clamps at fmax.
	if p.DynamicPower(v, 10*f) != dyn {
		t.Error("dynamic power must clamp frequency at fmax")
	}
	if p.DynamicPower(0, 1e9) != 0 || p.DynamicPower(0.5, 0) != 0 {
		t.Error("degenerate dynamic power should be 0")
	}
	if p.LeakagePower(0) != 0 {
		t.Error("leakage at 0 V should be 0")
	}
}

func TestLeakageGrowsWithVoltage(t *testing.T) {
	p := NewProcessor()
	prev := 0.0
	for v := 0.1; v <= 1.2; v += 0.05 {
		l := p.LeakagePower(v)
		if l <= prev {
			t.Fatalf("leakage not increasing at %.2f V", v)
		}
		prev = l
	}
}

func TestEnergyPerCycleShape(t *testing.T) {
	p := NewProcessor()
	if !math.IsInf(p.EnergyPerCycle(p.thresholdVoltage), 1) {
		t.Error("energy per cycle at threshold should be +Inf")
	}
	mepV, mepE := p.ConventionalMEP()
	// The MEP beats a dense grid.
	for v := p.MinVoltage(); v <= p.MaxVoltage(); v += 0.005 {
		if e := p.EnergyPerCycle(v); e < mepE-1e-18 {
			t.Fatalf("energy %.6g at %.3f V beats MEP %.6g at %.3f V", e, v, mepE, mepV)
		}
	}
	// Leakage energy dominates on the left of the MEP, dynamic on the right.
	left := mepV - 0.05
	if p.LeakageEnergyPerCycle(left)/p.EnergyPerCycle(left) <
		p.LeakageEnergyPerCycle(mepV+0.2)/p.EnergyPerCycle(mepV+0.2) {
		t.Error("leakage fraction should fall as voltage rises above the MEP")
	}
	// Components sum.
	v := 0.55
	if math.Abs(p.EnergyPerCycle(v)-p.DynamicEnergyPerCycle(v)-p.LeakageEnergyPerCycle(v)) > 1e-18 {
		t.Error("energy components do not sum")
	}
}

func TestVoltageForFrequencyInverse(t *testing.T) {
	p := NewProcessor()
	for _, f := range []float64{50e6, 200e6, 500e6, 900e6} {
		v, err := p.VoltageForFrequency(f)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if got := p.MaxFrequency(v); got < f-1e3 {
			t.Errorf("f=%g: voltage %.4f sustains only %.4g", f, v, got)
		}
		// Minimality: 1 mV less must not sustain f (unless clamped at min).
		if v > p.MinVoltage()+1e-3 {
			if p.MaxFrequency(v-1e-3) >= f {
				t.Errorf("f=%g: %.4f V is not minimal", f, v)
			}
		}
	}
	if _, err := p.VoltageForFrequency(1e12); !errors.Is(err, ErrUnreachableFrequency) {
		t.Errorf("want ErrUnreachableFrequency, got %v", err)
	}
	if v, err := p.VoltageForFrequency(0); err != nil || v != p.MinVoltage() {
		t.Errorf("f=0: got %v, %v", v, err)
	}
}

func TestFrequencyForPower(t *testing.T) {
	p := NewProcessor()
	v := 0.6
	// Budget exactly the max power: full speed.
	if f := p.FrequencyForPower(v, p.MaxPower(v)); math.Abs(f-p.MaxFrequency(v)) > 1 {
		t.Errorf("full budget gives %.4g, want fmax %.4g", f, p.MaxFrequency(v))
	}
	// Half the dynamic budget: check the arithmetic.
	budget := p.LeakagePower(v) + 0.5*(p.MaxPower(v)-p.LeakagePower(v))
	want := 0.5 * p.MaxFrequency(v)
	if f := p.FrequencyForPower(v, budget); math.Abs(f-want)/want > 1e-9 {
		t.Errorf("half budget gives %.6g, want %.6g", f, want)
	}
	// Leakage exceeds budget: zero.
	if f := p.FrequencyForPower(v, 0.5*p.LeakagePower(v)); f != 0 {
		t.Errorf("sub-leakage budget gives %g, want 0", f)
	}
	if f := p.FrequencyForPower(0.2, 1e-3); f != 0 {
		t.Errorf("below threshold gives %g, want 0", f)
	}
}

func TestOptions(t *testing.T) {
	p := NewProcessor(
		WithNominal(0.9, 500e6),
		WithThresholdVoltage(0.25),
		WithAlpha(1.3),
		WithSwitchedCapacitance(50e-12),
		WithLeakage(1e-5, 2.5),
		WithVoltageRange(0.3, 1.0),
	)
	if f := p.MaxFrequency(0.9); math.Abs(f-500e6) > 1 {
		t.Errorf("nominal point not honoured: %g", f)
	}
	if p.MinVoltage() != 0.3 || p.MaxVoltage() != 1.0 {
		t.Error("voltage range not honoured")
	}
	if p.thresholdVoltage != 0.25 {
		t.Error("threshold not honoured")
	}
	if got := p.DynamicEnergyPerCycle(1.0); math.Abs(got-50e-12) > 1e-15 {
		t.Errorf("Ceff not honoured: %g", got)
	}
}

// Property: current equals power over voltage.
func TestQuickCurrentConsistency(t *testing.T) {
	p := NewProcessor()
	f := func(vRaw, fRaw uint16) bool {
		v := 0.2 + float64(vRaw)/65535*1.0
		freq := float64(fRaw) / 65535 * 1e9
		return math.Abs(p.Current(v, freq)*v-p.Power(v, freq)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FrequencyForPower never exceeds the budget or fmax.
func TestQuickFrequencyForPowerBounds(t *testing.T) {
	p := NewProcessor()
	f := func(vRaw, bRaw uint16) bool {
		v := 0.2 + float64(vRaw)/65535*1.0
		budget := float64(bRaw) / 65535 * 30e-3
		freq := p.FrequencyForPower(v, budget)
		if freq < 0 || freq > p.MaxFrequency(v)+1 {
			return false
		}
		if freq == 0 {
			return true
		}
		return p.Power(v, freq) <= budget*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkConventionalMEP(b *testing.B) {
	p := NewProcessor()
	for i := 0; i < b.N; i++ {
		p.ConventionalMEP()
	}
}

func TestProcessCorners(t *testing.T) {
	ss := NewProcessor(WithCorner(CornerSlow))
	tt := NewProcessor(WithCorner(CornerTypical))
	ff := NewProcessor(WithCorner(CornerFast))
	// Frequency ordering at a shared supply.
	if !(ss.MaxFrequency(0.6) < tt.MaxFrequency(0.6) && tt.MaxFrequency(0.6) < ff.MaxFrequency(0.6)) {
		t.Error("corner frequency ordering violated")
	}
	// Leakage ordering.
	if !(ss.LeakagePower(0.6) < tt.LeakagePower(0.6) && tt.LeakagePower(0.6) < ff.LeakagePower(0.6)) {
		t.Error("corner leakage ordering violated")
	}
	// Typical equals the default.
	def := NewProcessor()
	if tt.MaxFrequency(0.7) != def.MaxFrequency(0.7) || tt.LeakagePower(0.7) != def.LeakagePower(0.7) {
		t.Error("typical corner should match the default model")
	}
	// Leakage energy per cycle at a low-voltage point orders with the
	// corner's leakage (the FF corner's speed gain does not cancel its
	// 2.2x leakage).
	if !(ss.LeakageEnergyPerCycle(0.45) < tt.LeakageEnergyPerCycle(0.45) &&
		tt.LeakageEnergyPerCycle(0.45) < ff.LeakageEnergyPerCycle(0.45)) {
		t.Error("corner leakage-energy ordering violated at 0.45 V")
	}
	// Corner names.
	if CornerSlow.String() != "SS" || CornerTypical.String() != "TT" || CornerFast.String() != "FF" {
		t.Error("corner names wrong")
	}
	if Corner(0).String() != "corner?" {
		t.Error("invalid corner name wrong")
	}
}

func TestTemperatureEffects(t *testing.T) {
	cold := NewProcessor(WithTemperature(-10))
	room := NewProcessor(WithTemperature(25))
	hot := NewProcessor(WithTemperature(60))
	def := NewProcessor()

	// 25 C equals the calibration point.
	if room.LeakagePower(0.5) != def.LeakagePower(0.5) {
		t.Error("25 C should match the default model")
	}
	// Leakage ordering: cold < room < hot, and hot roughly 2^(35/15) ~ 5x room.
	lc, lr, lh := cold.LeakagePower(0.5), room.LeakagePower(0.5), hot.LeakagePower(0.5)
	if !(lc < lr && lr < lh) {
		t.Errorf("leakage ordering violated: %g %g %g", lc, lr, lh)
	}
	if ratio := lh / lr; ratio < 3.5 || ratio > 7 {
		t.Errorf("hot/room leakage ratio %.2f, want ~5", ratio)
	}
	// Peak frequency degrades with heat (mobility), despite the lower Vth.
	if hot.MaxFrequency(1.0) >= room.MaxFrequency(1.0) {
		t.Error("hot silicon should be slower at nominal voltage")
	}
	// Near threshold, the lower Vth wins: hot silicon is faster at 0.4 V.
	if hot.MaxFrequency(0.4) <= room.MaxFrequency(0.4) {
		t.Error("hot silicon should be faster near threshold")
	}
	// The minimum achievable energy per cycle worsens with heat: the
	// leakage floor rises ~2x/15 C while switching energy is unchanged.
	// (The MEP *voltage* direction is model-dependent here: the -2 mV/C
	// threshold shift raises near-threshold frequency enough to offset the
	// leakage-power doubling in the alpha-power model.)
	_, eCold := cold.ConventionalMEP()
	_, eHot := hot.ConventionalMEP()
	if eHot <= eCold {
		t.Errorf("hot MEP energy %.4g should exceed cold %.4g", eHot, eCold)
	}
}

// TestVoltageForFrequencyWarmParity checks that the warm-started voltage
// solve is bit-identical to the stateless one under the access patterns the
// schedulers produce: slowly drifting targets, jumps, repeats, unreachable
// and non-positive frequencies, and a processor swap mid-state.
func TestVoltageForFrequencyWarmParity(t *testing.T) {
	p := NewProcessor()
	q := NewProcessor(WithAlpha(1.6), WithThresholdVoltage(0.33))
	var state FreqSolverState

	check := func(proc *Processor, f float64) {
		t.Helper()
		wantV, wantErr := proc.VoltageForFrequency(f)
		gotV, gotErr := proc.VoltageForFrequencyWarm(f, &state)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("f=%g: error mismatch warm=%v stateless=%v", f, gotErr, wantErr)
		}
		if wantErr == nil && math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("f=%g: warm %v != stateless %v", f, gotV, wantV)
		}
	}

	// Slow drift, like a deadline controller's catch-up rate.
	f := 40e6
	for i := 0; i < 5000; i++ {
		check(p, f)
		f *= 1.0001
	}
	// Jumps, repeats, and edge cases on the same state.
	for _, f := range []float64{80e6, 80e6, 1e6, 0, -5, 1e12, math.Inf(1), 200e6, 3e6} {
		check(p, f)
	}
	// Swapping processors must invalidate the cached trajectory.
	for i := 0; i < 100; i++ {
		check(q, 30e6+1e4*float64(i))
		check(p, 30e6+1e4*float64(i))
	}
}

// TestVoltageForFrequencyWarmReusesProbes verifies the cache actually short-
// circuits alpha-law evaluations on repeated solves for the same frequency.
func TestVoltageForFrequencyWarmReusesProbes(t *testing.T) {
	p := NewProcessor()
	var state FreqSolverState
	if _, err := p.VoltageForFrequencyWarm(55e6, &state); err != nil {
		t.Fatal(err)
	}
	if state.n == 0 {
		t.Fatal("no probe trajectory recorded")
	}
	before := state.n
	if _, err := p.VoltageForFrequencyWarm(55e6, &state); err != nil {
		t.Fatal(err)
	}
	if state.n != before {
		t.Fatalf("identical solve changed trajectory length: %d -> %d", before, state.n)
	}
}

// FuzzPowerFromParts holds PowerFromParts to Power bit for bit: given the
// processor's own MaxFrequency(v) and LeakagePower(v) it must return
// exactly Power(v, f) for every supply and clock — NaN, signed zeros,
// negative values, supplies at or below the threshold and the functional
// minimum included — on the default processor and on one with fuzzed
// alpha-law parameters.
func FuzzPowerFromParts(f *testing.F) {
	def := NewProcessor()
	negZero := math.Copysign(0, -1)
	for _, seed := range [][2]float64{
		{0.5, 50e6}, {0.5, 1e12}, {0.55, math.Inf(1)}, {0.6, 0}, {0.6, negZero}, {0.6, -1},
		{def.thresholdVoltage, 1e6}, {def.MinVoltage(), 1e6}, {0.33, 1e6},
		{0, 1e6}, {negZero, 1e6}, {-0.3, 1e6}, {math.Inf(1), 1e6},
		{math.NaN(), 1e6}, {0.6, math.NaN()}, {math.NaN(), math.NaN()},
	} {
		f.Add(seed[0], seed[1], 1.4, 0.32)
	}
	f.Add(0.5, 50e6, math.NaN(), 0.32)
	f.Add(0.5, 50e6, 1.4, 0.6)
	f.Fuzz(func(t *testing.T, v, freq, alpha, vth float64) {
		for _, p := range []*Processor{def, NewProcessor(WithAlpha(alpha), WithThresholdVoltage(vth))} {
			want := p.Power(v, freq)
			got := p.PowerFromParts(v, freq, p.MaxFrequency(v), p.LeakagePower(v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha=%v vth=%v: PowerFromParts(%v, %v) = %v (%#x), Power = %v (%#x)",
					alpha, vth, v, freq, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
