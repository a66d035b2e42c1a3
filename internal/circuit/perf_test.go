package circuit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

func TestClockLevelValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []float64
	}{
		{"nan", []float64{1e6, math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"negative", []float64{10e6, -1}},
	}
	for _, tc := range cases {
		cfg := testConfig(t, &FixedPoint{Supply: 0.5})
		cfg.ClockLevels = tc.levels
		if _, err := New(cfg); !errors.Is(err, ErrInvalidClockLevel) {
			t.Errorf("%s: got %v, want ErrInvalidClockLevel", tc.name, err)
		}
	}
}

// quantizeReference is the semantics quantizeClock must preserve: the highest
// configured level at or below the command, zero when the command is below
// every level, and a pass-through for empty configs or non-positive commands.
func quantizeReference(levels []float64, f float64) float64 {
	if len(levels) == 0 || f <= 0 {
		return f
	}
	best := 0.0
	for _, l := range levels {
		if l <= f && l > best {
			best = l
		}
	}
	return best
}

func TestQuantizeClockMatchesReference(t *testing.T) {
	// Deliberately unsorted with duplicates and a zero level; New must
	// sort and deduplicate so the binary search agrees with a linear scan
	// over the raw input.
	raw := []float64{80e6, 10e6, 40e6, 10e6, 0, 120e6, 40e6}
	cfg := testConfig(t, &FixedPoint{Supply: 0.5})
	cfg.ClockLevels = raw
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &sim.state
	sorted := st.cfg.ClockLevels
	for i := 1; i < len(sorted); i++ {
		if sorted[i] <= sorted[i-1] {
			t.Fatalf("levels not sorted/deduplicated: %v", sorted)
		}
	}
	probes := []float64{-1, 0, 1, 5e6, 10e6, 10e6 + 1, 39e6, 40e6, 79e6, 80e6, 100e6, 120e6, 1e9, math.Inf(1)}
	for _, f := range probes {
		if got, want := st.quantizeClock(f), quantizeReference(raw, f); got != want {
			t.Errorf("quantizeClock(%g) = %g, want %g", f, got, want)
		}
	}
}

// allocRunConfig builds a config whose only free parameter is the horizon so
// two runs of different lengths isolate the per-step allocation count.
func allocRunConfig(t testing.TB, maxTime float64, traceEvery int) Config {
	t.Helper()
	storage, err := cap.New(100e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  ConstantIrradiance(1.0),
		Controller:  &FixedPoint{Supply: 0.5},
		ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
		Step:        5e-6,
		MaxTime:     maxTime,
		TraceEvery:  traceEvery,
	}
}

func runAllocs(t *testing.T, maxTime float64, traceEvery int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		cfg := allocRunConfig(t, maxTime, traceEvery)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepLoopAllocations pins the steady-state step loop at zero allocations
// per step. Setup cost (New, the capacitor, the pre-sized waveform slice) is
// identical for both horizons, so the difference between a long and a short
// run divides out everything but the per-step cost.
func TestStepLoopAllocations(t *testing.T) {
	const shortSteps, longSteps = 400, 4000
	short := runAllocs(t, shortSteps*5e-6, 0)
	long := runAllocs(t, longSteps*5e-6, 0)
	if perStep := (long - short) / (longSteps - shortSteps); perStep > 0.01 {
		t.Errorf("untraced loop allocates %.3f/step (short=%.0f long=%.0f), want 0",
			perStep, short, long)
	}

	// Waveform tracing appends into a slice pre-sized by Run, so the traced
	// loop adds only a constant number of allocations per run (the slice
	// itself), never per step. Event tracing through a non-nil Tracer is
	// allowed a small per-event cost (trace.Args maps) and is exercised by
	// the trace golden tests, not pinned here.
	shortTr := runAllocs(t, shortSteps*5e-6, 1)
	longTr := runAllocs(t, longSteps*5e-6, 1)
	if perStep := (longTr - shortTr) / (longSteps - shortSteps); perStep > 0.01 {
		t.Errorf("waveform-traced loop allocates %.3f/step (short=%.0f long=%.0f), want 0",
			perStep, shortTr, longTr)
	}
}

// BenchmarkCircuitStep measures the steady-state cost of one simulation step
// (PV solve + regulator + integration + controller) with no tracing.
func BenchmarkCircuitStep(b *testing.B) {
	const steps = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := allocRunConfig(b, steps*5e-6, 0)
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// TestStateMaxFrequencyMatchesProcessor holds the per-supply memo to the
// processor bit for bit: repeated supplies (hits), alternating ones
// (rekeys), leakage lookups interleaved at the same key, NaN payloads and
// both signed zeros, which share a value but not a bit pattern.
func TestStateMaxFrequencyMatchesProcessor(t *testing.T) {
	sim, err := New(testConfig(t, &FixedPoint{Supply: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	st := &sim.state
	proc := st.Processor()
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	const vth = 0.32 // NewProcessor's threshold voltage
	supplies := []float64{
		0.5, 0.5, 0.5, 0.6, 0.5, 0.6, 0.6,
		vth, proc.MinVoltage(), proc.MinVoltage(), 0.2,
		0, negZero, 0, negZero, negZero,
		math.NaN(), math.NaN(), otherNaN, math.NaN(),
		-0.3, math.Inf(1), math.Inf(-1), proc.MaxVoltage(), 1e-300, 0.5,
	}
	for i, v := range supplies {
		if i%3 == 0 {
			if got, want := st.leakagePower(v), proc.LeakagePower(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("leakagePower(%v) = %v, processor %v", v, got, want)
			}
		}
		if got, want := st.MaxFrequency(v), proc.MaxFrequency(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MaxFrequency(%v) [lookup %d] = %v, processor %v", v, i, got, want)
		}
	}
	if st.supply.hits == 0 || st.supply.misses == 0 {
		t.Errorf("memo counted %d hits, %d misses; the sequence has both", st.supply.hits, st.supply.misses)
	}
}

// TestSupplyMemoCounts pins the memo's work counters on a constant-light
// FixedPoint run that never halts: the regulated supply holds its bits,
// so the first step pays one clock and one leakage evaluation and every
// later step answers both from the memo.
func TestSupplyMemoCounts(t *testing.T) {
	const steps = 400
	sim, err := New(allocRunConfig(t, steps*5e-6, 0))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.BrownedOut {
		t.Fatal("run halted; the pinned counts assume a running core")
	}
	p := sim.Progress()
	if p.Steps != steps || p.SupplyMemoHits != 2*steps-2 || p.SupplyMemoMisses != 2 {
		t.Errorf("steps %d: memo hits %d, misses %d; want %d steps, %d hits, 2 misses",
			p.Steps, p.SupplyMemoHits, p.SupplyMemoMisses, steps, 2*steps-2)
	}
}

// TestPVSolverCounts pins the cell solver's work counters on two 400-step
// FixedPoint runs: one at constant light, where the replay resumes from the
// previous step's trajectory, and one under a ramp that changes the
// photocurrent every step, so every replay starts from the full bracket.
// No solve of the default cell leaves Newton for the reference bisection.
func TestPVSolverCounts(t *testing.T) {
	const steps = 400
	for _, tc := range []struct {
		name      string
		irr       func(float64) float64
		bandEvals int
	}{
		{"constant", ConstantIrradiance(1.0), 47},
		{"ramp", RampIrradiance(1.0, 0.5, 0, steps*5e-6), 78},
	} {
		cfg := allocRunConfig(t, steps*5e-6, 0)
		cfg.Irradiance = tc.irr
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		p := sim.Progress()
		if p.Steps != steps || p.PVFallbacks != 0 || p.PVBandEvals != tc.bandEvals {
			t.Errorf("%s: steps %d, fallbacks %d, band evals %d; want %d steps, 0 fallbacks, %d band evals",
				tc.name, p.Steps, p.PVFallbacks, p.PVBandEvals, steps, tc.bandEvals)
		}
	}
}
