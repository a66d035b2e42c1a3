package circuit_test

// Ledger-under-fast-forward parity: a profiled run must skip its inert
// spans (the ledger no longer gates fast-forward) and its ledger must be
// bitwise the one a verbatim run accumulates. Lives outside package
// circuit so the suite can drive sched.DeadlineController, the
// controller fleets and the transient figures use.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ledgerRun is what one profiled run exposes.
type ledgerRun struct {
	out     circuit.Outcome
	led     prof.Ledger
	events  []trace.Event // without circuit.ffwd instants, Seq zeroed
	skipped int
}

// relight is when runProfiled's sky turns bright again.
const relight = 0.3

// runProfiled runs one profiled simulation over a bright → dark → bright
// sky. The dark span is long enough for the node to collapse and sit
// inert; the aux load stops at relight so the node resumes, and a phase
// the controller declared while skipped shows up in the ledger.
func runProfiled(t *testing.T, ctl circuit.Controller, aux float64, noFF bool) ledgerRun {
	t.Helper()
	storage, err := cap.New(100e-6, 1.2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	var r ledgerRun
	rec := trace.NewRecorder()
	cfg := circuit.Config{
		Cell: pv.NewCell(),
		Proc: cpu.NewProcessor(),
		Reg:  reg.NewSC(),
		Cap:  storage,
		IrradianceSource: circuit.PiecewiseConstSource{
			Times:  []float64{0, 0.02, relight},
			Levels: []float64{1, 0, 1},
		},
		Controller:    ctl,
		Step:          2e-5,
		MaxTime:       0.4,
		Ledger:        &r.led,
		Tracer:        rec,
		NoFastForward: noFF,
	}
	if aux > 0 {
		cfg.AuxLoad = func(t float64) float64 {
			if t < relight {
				return aux
			}
			return 0
		}
	}
	sim, err := circuit.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	r.out = *out
	r.skipped = sim.Progress().StepsSkipped
	for _, ev := range rec.Events() {
		if ev.Kind != "circuit.ffwd" {
			ev.Seq = 0 // skipped runs spend sequence numbers on ffwd instants
			r.events = append(r.events, ev)
		}
	}
	return r
}

// TestLedgerFastForwardParity is the differential contract for profiled
// runs: with a ledger attached, fast-forward must actually skip, and
// every bin's Seconds and Joules must be bitwise those of the verbatim
// run, with equal Outcomes and trace events (circuit.ffwd aside).
func TestLedgerFastForwardParity(t *testing.T) {
	deadline := func(sprint float64, bypass bool) func() circuit.Controller {
		return func() circuit.Controller {
			return &sched.DeadlineController{
				Cycles: 4e6, Deadline: 0.25, Sprint: sprint, AllowBypass: bypass,
			}
		}
	}
	cases := []struct {
		name string
		ctl  func() circuit.Controller
		aux  float64
		// wantBin must carry time in the profiled run: the phase the
		// case exists to exercise.
		wantBin prof.Bin
	}{
		{"fixed-point/collapse", func() circuit.Controller { return &circuit.FixedPoint{Supply: 0.5} }, 0.4e-3, prof.BinCPUActive},
		{"fixed-point/frozen", func() circuit.Controller { return &circuit.FixedPoint{Supply: 0.5} }, 0, prof.BinCPUActive},
		{"direct/collapse", func() circuit.Controller { return circuit.DirectConnection{} }, 0.4e-3, prof.BinCPUActive},
		{"direct/frozen", func() circuit.Controller { return circuit.DirectConnection{} }, 0, prof.BinCPUActive},
		{"deadline/plain", deadline(0, true), 0.4e-3, prof.BinCPUActive},
		// The sprint handoff (T/2 = 0.125 s) falls inside the dead span:
		// the controller's horizon stops the skip there so SetProfilePhase
		// runs verbatim, and the resumed node's time lands in cpu/sprint.
		{"deadline/sprint", deadline(0.4, true), 0.4e-3, prof.BinCPUSprint},
		// Regulated, no bypass: the dropout latches before the collapse,
		// the one regulated state DeadlineController vouches for.
		{"deadline/dropout-latched", deadline(0, false), 0.4e-3, prof.BinCPUActive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verbatim := runProfiled(t, tc.ctl(), tc.aux, true)
			ffwd := runProfiled(t, tc.ctl(), tc.aux, false)
			if ffwd.skipped == 0 {
				t.Fatal("profiled run skipped no steps: the ledger is gating fast-forward again")
			}
			if verbatim.skipped != 0 {
				t.Errorf("verbatim run skipped %d steps", verbatim.skipped)
			}
			for b := prof.Bin(0); int(b) < prof.NumBins; b++ {
				vs, fs := verbatim.led.Seconds[b], ffwd.led.Seconds[b]
				if math.Float64bits(vs) != math.Float64bits(fs) {
					t.Errorf("%s seconds: verbatim %v (%#x), ffwd %v (%#x)",
						b, vs, math.Float64bits(vs), fs, math.Float64bits(fs))
				}
				vj, fj := verbatim.led.Joules[b], ffwd.led.Joules[b]
				if math.Float64bits(vj) != math.Float64bits(fj) {
					t.Errorf("%s joules: verbatim %v (%#x), ffwd %v (%#x)",
						b, vj, math.Float64bits(vj), fj, math.Float64bits(fj))
				}
			}
			if !reflect.DeepEqual(verbatim.out, ffwd.out) {
				t.Errorf("outcomes differ:\nverbatim: %+v\nffwd:     %+v", verbatim.out, ffwd.out)
			}
			if !reflect.DeepEqual(verbatim.events, ffwd.events) {
				t.Errorf("trace events differ: verbatim %d, ffwd %d", len(verbatim.events), len(ffwd.events))
			}
			if !(ffwd.led.Seconds[prof.BinDead] > 0) {
				t.Error("no dead/brownout time: the run never browned out")
			}
			if !(ffwd.led.Seconds[tc.wantBin] > 0) {
				t.Errorf("no %s time: the case does not exercise its phase", tc.wantBin)
			}
		})
	}
}

// TestLedgerSkipDeadBinReplay pins the replay's arithmetic on a run that
// is dead from its first step: the dead bin must hold the step-by-step
// sum of dt (not k·dt) and a +0 joule total, and nothing else may move.
func TestLedgerSkipDeadBinReplay(t *testing.T) {
	storage, err := cap.New(100e-6, 0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	var led prof.Ledger
	const step, maxTime = 3e-5, 0.1
	sim, err := circuit.New(circuit.Config{
		Cell: pv.NewCell(), Proc: cpu.NewProcessor(), Reg: reg.NewSC(), Cap: storage,
		IrradianceSource: circuit.Constant{},
		Controller:       &circuit.FixedPoint{Supply: 0.5},
		Step:             step,
		MaxTime:          maxTime,
		Ledger:           &led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	p := sim.Progress()
	if p.StepsSkipped == 0 {
		t.Fatal("a run dead from t=0 skipped no steps")
	}
	var want float64
	for i := 0; i < p.Steps; i++ {
		want += step
	}
	if got := led.Seconds[prof.BinDead]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("dead seconds %v, want the %d-step sum %v", got, p.Steps, want)
	}
	if got := led.Joules[prof.BinDead]; math.Float64bits(got) != 0 {
		t.Errorf("dead joules %v (%#x), want +0", got, math.Float64bits(got))
	}
	for b := prof.Bin(0); int(b) < prof.NumBins; b++ {
		if b != prof.BinDead && (led.Seconds[b] != 0 || led.Joules[b] != 0) {
			t.Errorf("%s moved: %v s, %v J", b, led.Seconds[b], led.Joules[b])
		}
	}
}
