package fault_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/intermittent"
	"repro/internal/trace"
)

// The NVM injector must satisfy the executor's fault hook without the
// intermittent package importing fault.
var _ intermittent.Faults = (*fault.NVMInjector)(nil)

func TestParsePlan(t *testing.T) {
	plan, err := fault.ParsePlan([]byte(`{
		"seed": 7,
		"brownouts": [{"at_s": 0.1, "duration_s": 0.02, "every_s": 0.25}],
		"random_brownouts": {"count": 3, "mean_duration_s": 0.01, "depth": 0.2},
		"nvm": {"torn_write_prob": 0.1, "restore_bitrot_prob": 0.05, "fail_every_n": 4},
		"serve": {"latency_ms": 5, "error_prob": 0.1, "error_status": 503}
	}`))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if plan.Seed != 7 || len(plan.Brownouts) != 1 || plan.Random.Count != 3 ||
		plan.NVM.FailEveryN != 4 || plan.Serve.ErrorStatus != 503 {
		t.Fatalf("plan decoded wrong: %+v", plan)
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"seed": 1, "brownout": []}`,
		"bad json":           `{`,
		"negative at":        `{"brownouts": [{"at_s": -1, "duration_s": 1}]}`,
		"zero duration":      `{"brownouts": [{"at_s": 0, "duration_s": 0}]}`,
		"self-overlap":       `{"brownouts": [{"at_s": 0, "duration_s": 2, "every_s": 1}]}`,
		"depth 1":            `{"brownouts": [{"at_s": 0, "duration_s": 1, "depth": 1}]}`,
		"random no duration": `{"random_brownouts": {"count": 2}}`,
		"random count 1e12":  `{"seed": 1, "random_brownouts": {"count": 1000000000000, "mean_duration_s": 0.001}}`,
		"nvm prob":           `{"nvm": {"torn_write_prob": 1.5}}`,
		"nvm every":          `{"nvm": {"fail_every_n": -1}}`,
		"serve prob":         `{"serve": {"error_prob": -0.1}}`,
		"serve status":       `{"serve": {"error_status": 200}}`,
		"serve hold":         `{"serve": {"gate_hold_ms": -1}}`,
	}
	for name, body := range cases {
		if _, err := fault.ParsePlan([]byte(body)); !errors.Is(err, fault.ErrBadPlan) {
			t.Errorf("%s: got %v, want ErrBadPlan", name, err)
		}
	}
}

// TestWindowBound pins MaxWindows at both ends. A random count above it
// fails validation (it used to allocate one window per pulse, 10^12 of
// them for the plan below). A periodic pulse that repeats more often
// over the horizon fails Brownouts with ErrBadPlan before allocating.
// Plans at the bound still resolve.
func TestWindowBound(t *testing.T) {
	huge := fault.Plan{Seed: 1, Random: &fault.RandomPulses{Count: 1_000_000_000_000, MeanDurationS: 1e-3}}
	if err := huge.Validate(); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("random count 1e12: Validate = %v, want ErrBadPlan", err)
	}
	atBound := fault.Plan{Random: &fault.RandomPulses{Count: fault.MaxWindows, MeanDurationS: 1e-9}}
	if err := atBound.Validate(); err != nil {
		t.Errorf("random count at the bound refused: %v", err)
	}
	atBound.Random.Count++
	if err := atBound.Validate(); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("random count MaxWindows+1: Validate = %v, want ErrBadPlan", err)
	}

	dense := fault.Plan{Seed: 1, Brownouts: []fault.Pulse{{AtS: 0, DurationS: 1e-12, EveryS: 1e-12}}}
	if err := dense.Validate(); err != nil {
		t.Fatalf("the dense plan is horizon-dependent and must validate: %v", err)
	}
	if b, err := fault.New(dense, "x").Brownouts(1.0); !errors.Is(err, fault.ErrBadPlan) || b != nil {
		t.Errorf("1e12 periodic windows: Brownouts = (%v, %v), want (nil, ErrBadPlan)", b, err)
	}

	// Unit-period pulses: a horizon of MaxWindows resolves exactly
	// MaxWindows windows; one more period is one window too many.
	periodic := fault.Plan{Brownouts: []fault.Pulse{{AtS: 0, DurationS: 0.5, EveryS: 1}}}
	if got := len(resolve(t, periodic, "x", fault.MaxWindows).Windows()); got != fault.MaxWindows {
		t.Errorf("periodic plan at the bound resolved %d windows, want %d", got, fault.MaxWindows)
	}
	if _, err := fault.New(periodic, "x").Brownouts(fault.MaxWindows + 1); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("periodic plan past the bound: err = %v, want ErrBadPlan", err)
	}
	// Explicit and random windows count against one budget.
	mixed := fault.Plan{
		Brownouts: []fault.Pulse{{AtS: 0, DurationS: 0.5}},
		Random:    &fault.RandomPulses{Count: fault.MaxWindows, MeanDurationS: 1e-9},
	}
	if _, err := fault.New(mixed, "x").Brownouts(1.0); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("explicit + random past the bound: err = %v, want ErrBadPlan", err)
	}
}

func TestLoadPlanMissing(t *testing.T) {
	if _, err := fault.LoadPlan("testdata/definitely-missing.json"); err == nil {
		t.Fatal("missing plan file loaded")
	}
}

func TestStreamSeedDomains(t *testing.T) {
	a := fault.StreamSeed(1, "fig8", "brownout")
	if a != fault.StreamSeed(1, "fig8", "brownout") {
		t.Fatal("stream seed not stable")
	}
	for name, b := range map[string]int64{
		"domain": fault.StreamSeed(1, "fig8", "nvm"),
		"stream": fault.StreamSeed(1, "fig9b", "brownout"),
		"seed":   fault.StreamSeed(2, "fig8", "brownout"),
	} {
		if a == b {
			t.Errorf("changing %s did not change the stream seed", name)
		}
	}
}

// resolve resolves plan's brownouts on stream over the horizon, failing
// the test on a refusal.
func resolve(t *testing.T, plan fault.Plan, stream string, horizon float64) *fault.Brownouts {
	t.Helper()
	b, err := fault.New(plan, stream).Brownouts(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrownoutsResolveDeterministic(t *testing.T) {
	plan := fault.Plan{
		Seed:      42,
		Brownouts: []fault.Pulse{{AtS: 0.1, DurationS: 0.05, EveryS: 0.3}},
		Random:    &fault.RandomPulses{Count: 4, MeanDurationS: 0.02, Depth: 0.1},
	}
	w1 := resolve(t, plan, "fig8", 1.0).Windows()
	w2 := resolve(t, plan, "fig8", 1.0).Windows()
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same (plan, stream) resolved different windows")
	}
	w3 := resolve(t, plan, "fig9b", 1.0).Windows()
	if reflect.DeepEqual(w1, w3) {
		t.Fatal("different streams resolved identical random windows")
	}
	for i, w := range w1 {
		if w.End <= w.Start {
			t.Errorf("window %d empty: %+v", i, w)
		}
		if i > 0 && w.Start <= w1[i-1].End {
			t.Errorf("windows %d/%d not merged: %+v %+v", i-1, i, w1[i-1], w)
		}
	}
}

func TestBrownoutsMergeDepth(t *testing.T) {
	plan := fault.Plan{Brownouts: []fault.Pulse{
		{AtS: 0.1, DurationS: 0.1, Depth: 0.5},
		{AtS: 0.15, DurationS: 0.1, Depth: 0.2}, // overlaps; darker wins
		{AtS: 0.5, DurationS: 0.05},
	}}
	ws := resolve(t, plan, "x", 1.0).Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(ws), ws)
	}
	if ws[0].Start != 0.1 || ws[0].End != 0.25 || ws[0].Depth != 0.2 {
		t.Errorf("merged window wrong: %+v", ws[0])
	}
}

func TestBrownoutsWrap(t *testing.T) {
	plan := fault.Plan{Brownouts: []fault.Pulse{{AtS: 0.2, DurationS: 0.1, Depth: 0.25}}}
	irr := resolve(t, plan, "x", 1.0).Wrap(func(float64) float64 { return 2.0 })
	for _, tc := range []struct{ t, want float64 }{
		{0.0, 2.0}, {0.19, 2.0}, {0.2, 0.5}, {0.29, 0.5}, {0.31, 2.0}, {0.9, 2.0},
	} {
		if got := irr(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("irr(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	// No windows: the base function comes back untouched.
	none := resolve(t, fault.Plan{}, "x", 1.0)
	if got := none.Wrap(func(float64) float64 { return 3 })(0.5); got != 3 {
		t.Errorf("empty wrap altered irradiance: %g", got)
	}
}

func TestBrownoutsEmit(t *testing.T) {
	plan := fault.Plan{Seed: 9, Brownouts: []fault.Pulse{{AtS: 0.1, DurationS: 0.05}}}
	rec := trace.NewRecorder()
	resolve(t, plan, "fig8", 1.0).Emit(rec, "fig8", plan.Seed)
	events := rec.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want plan + begin/end: %+v", len(events), events)
	}
	if events[0].Kind != "fault.plan" || events[1].Kind != "fault.brownout" {
		t.Errorf("unexpected kinds: %s %s", events[0].Kind, events[1].Kind)
	}
	if err := trace.ValidateAll(events); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}
	// A nil tracer must be a no-op, not a panic.
	resolve(t, plan, "fig8", 1.0).Emit(nil, "fig8", plan.Seed)
}

func TestNVMInjectorDeterministic(t *testing.T) {
	plan := fault.Plan{Seed: 3, NVM: &fault.NVMPlan{TornWriteProb: 0.4, RestoreBitrotProb: 0.3}}
	draw := func() (torn, corrupt []bool) {
		n := fault.New(plan, "s").NVM()
		for i := 0; i < 32; i++ {
			torn = append(torn, n.TornWrite(i))
			corrupt = append(corrupt, n.CorruptRestore(i))
		}
		return
	}
	t1, c1 := draw()
	t2, c2 := draw()
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("NVM injector draws not deterministic")
	}
	var any bool
	for i := range t1 {
		any = any || t1[i] || c1[i]
	}
	if !any {
		t.Fatal("no faults drawn at high probabilities; injector inert")
	}
}

func TestNVMInjectorFailEveryN(t *testing.T) {
	plan := fault.Plan{NVM: &fault.NVMPlan{FailEveryN: 3}}
	n := fault.New(plan, "s").NVM()
	var torn []int
	for i := 0; i < 9; i++ {
		if n.TornWrite(i) {
			torn = append(torn, i)
		}
	}
	if !reflect.DeepEqual(torn, []int{2, 5, 8}) {
		t.Fatalf("FailEveryN=3 tore commits %v, want [2 5 8]", torn)
	}
}

func TestNVMInjectorNil(t *testing.T) {
	var n *fault.NVMInjector
	if n.TornWrite(0) || n.CorruptRestore(0) {
		t.Fatal("nil injector injected")
	}
	if in := fault.New(fault.Plan{}, "s").NVM(); in != nil {
		t.Fatal("plan without NVM section produced an injector")
	}
}

func TestServeInjectorDecide(t *testing.T) {
	plan := fault.ServePlan{LatencyMS: 2, LatencyJitterMS: 1, ErrorProb: 1, RenderErrorProb: 1, GateHoldMS: 3}
	s := fault.NewServe(1)
	d := s.Decide(plan)
	if d.Delay < 2e6 || d.Delay > 3e6 { // 2–3 ms in ns
		t.Errorf("delay %v outside jitter band", d.Delay)
	}
	if !d.Fail || d.Status != 500 {
		t.Errorf("ErrorProb=1 did not fail with default 500: %+v", d)
	}
	if !d.RenderFault || d.GateHold != 3e6 {
		t.Errorf("render/gate injection wrong: %+v", d)
	}
	if d := s.Decide(fault.ServePlan{ErrorProb: 1, ErrorStatus: 429}); d.Status != 429 {
		t.Errorf("explicit status ignored: %+v", d)
	}
	if d := s.Decide(fault.ServePlan{}); d != (fault.Decision{}) {
		t.Errorf("zero plan injected: %+v", d)
	}
	var nilInj *fault.ServeInjector
	if d := nilInj.Decide(plan); d != (fault.Decision{}) {
		t.Errorf("nil injector injected: %+v", d)
	}
}

func TestErrInjectedWrapping(t *testing.T) {
	err := fault.Injectedf("render %s", "fig8")
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal("Injectedf lost ErrInjected identity")
	}
	if !strings.Contains(err.Error(), "fig8") {
		t.Fatalf("Injectedf lost detail: %v", err)
	}
}
