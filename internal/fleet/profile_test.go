package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/prof"
	"repro/internal/trace"
)

// profiledSpec runs specText with profiling on and the given execution
// settings, and returns the encoded profile bytes plus the report bytes.
func profiledSpec(t *testing.T, specText string, workers, batch int, noFF bool) ([]byte, []byte) {
	t.Helper()
	spec, err := ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Workers = workers
	cfg.Batch = batch
	cfg.NoFastForward = noFF
	cfg.Profile = prof.New()
	cfg.ProfileScope = "fleet"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pb, rb bytes.Buffer
	if err := prof.WritePprof(&pb, cfg.Profile); err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(&rb); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), rb.Bytes()
}

// TestFleetProfileParity extends the signature invariant to profiles: the
// exported bytes must be identical across worker counts and batch sizes,
// and profiling must not perturb the report itself.
func TestFleetProfileParity(t *testing.T) {
	refProf, refRep := profiledSpec(t, testSpec, 1, 0, false)
	if plain := renderFleet(t, testSpec, 1); !bytes.Equal(refRep, plain) {
		t.Error("profiling changed the report bytes")
	}
	for _, workers := range []int{2, 8} {
		for _, batch := range []int{0, 1, 3, 1000} {
			p, r := profiledSpec(t, testSpec, workers, batch, false)
			if !bytes.Equal(p, refProf) {
				t.Errorf("workers=%d batch=%d: profile bytes differ", workers, batch)
			}
			if !bytes.Equal(r, refRep) {
				t.Errorf("workers=%d batch=%d: report bytes differ", workers, batch)
			}
		}
	}
}

// TestFleetProfileReconciles ties the profile's flow bins to the report's
// energy totals. Both are node-ID-ordered sums of bitwise-identical
// per-step terms, so harvest and aux match exactly.
func TestFleetProfileReconciles(t *testing.T) {
	spec, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Profile = prof.New()
	cfg.ProfileScope = "fleet"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.Len() == 0 {
		t.Fatal("profile is empty")
	}
	total := cfg.Profile.Total()
	if got := total.Joules[prof.BinPVHarvest]; got != rep.EnergyHarvested {
		t.Errorf("profile harvest %g != report %g", got, rep.EnergyHarvested)
	}
	if got := total.Joules[prof.BinRadioTx]; got != rep.EnergyAux {
		t.Errorf("profile aux %g != report %g", got, rep.EnergyAux)
	}
	relErr := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		if b < 0 {
			b = -b
		}
		return d / b
	}
	var delivered float64
	for b := prof.Bin(0); b < prof.BinPVHarvest; b++ {
		delivered += total.Joules[b]
	}
	if relErr(delivered, rep.EnergyDelivered) > 1e-9 {
		t.Errorf("profile delivered %g != report %g", delivered, rep.EnergyDelivered)
	}
	for _, e := range cfg.Profile.Entries() {
		if e.Scope.Experiment != "fleet" {
			t.Fatalf("unexpected scope %+v", e.Scope)
		}
	}
}

// TestFleetOnEpoch: the hook sees every epoch snapshot, in order, matching
// the report's own series.
func TestFleetOnEpoch(t *testing.T) {
	spec, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	var seen []Snapshot
	cfg.OnEpoch = func(s Snapshot) { seen = append(seen, s) }
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, rep.Snapshots) {
		t.Errorf("OnEpoch saw %d snapshots %+v, report has %d %+v",
			len(seen), seen, len(rep.Snapshots), rep.Snapshots)
	}
}

// TestFleetDarkProfileFastForwardParity is the profiled half of the ffwd
// differential contract: on a dark fleet the ledger rides fast-forward,
// and the exported profile must be byte-identical with fast-forward on
// and off at every worker count and batch size — while the profiled run
// really skips.
func TestFleetDarkProfileFastForwardParity(t *testing.T) {
	refProf, refRep := profiledSpec(t, darkTailSpec, 1, 0, true) // verbatim reference
	if plain := renderFleetFF(t, darkTailSpec, 1, 0, true); !bytes.Equal(refRep, plain) {
		t.Error("profiling changed the dark fleet's report bytes")
	}
	for _, noFF := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			for _, batch := range []int{0, 1, 3} {
				p, r := profiledSpec(t, darkTailSpec, workers, batch, noFF)
				if !bytes.Equal(p, refProf) {
					t.Errorf("noFF=%v workers=%d batch=%d: profile bytes differ from the verbatim reference",
						noFF, workers, batch)
				}
				if !bytes.Equal(r, refRep) {
					t.Errorf("noFF=%v workers=%d batch=%d: report bytes differ", noFF, workers, batch)
				}
			}
		}
	}

	spec, err := ParseSpec(darkTailSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Profile = prof.New()
	_, res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, sim := range res.Lanes {
		skipped += sim.Progress().StepsSkipped
	}
	if skipped == 0 {
		t.Fatal("profiled dark fleet skipped no steps: the ledger is gating fast-forward again")
	}
}

// TestFleetDarkTraceWithProfile: attaching a profile to a traced dark
// fleet must not change a single recorded event.
func TestFleetDarkTraceWithProfile(t *testing.T) {
	record := func(p *prof.Profile) []trace.Event {
		spec, err := ParseSpec(darkTailSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Config()
		rec := trace.NewRecorder()
		cfg.Tracer = rec
		cfg.Profile = p
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	ref := record(nil)
	if len(ref) == 0 {
		t.Fatal("tracer-only run recorded no events")
	}
	if got := record(prof.New()); !reflect.DeepEqual(got, ref) {
		t.Errorf("traced+profiled run recorded %d events, tracer-only %d; streams differ", len(got), len(ref))
	}
}

// TestSimSecondsProperty is the engine's time property over small random
// specs: an accepted spec either errors, or its profile books every node
// for exactly the steps it stepped or skipped, and every node that did not
// finish its job early for the whole horizon. Seconds compare at the ns
// quantisation the exported profile allows. Horizons are drawn on and off
// the step grid, so the partial-step rejection is exercised too.
func TestSimSecondsProperty(t *testing.T) {
	steps := []float64{1e-3, 5e-4, 2e-4, 1e-4, 2e-5}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		step := steps[rng.Intn(len(steps))]
		horizon := float64(1+rng.Intn(60)) * step
		if rng.Intn(3) == 0 {
			horizon += rng.Float64() * step
		}
		text := fmt.Sprintf("n=%d,seed=%d,horizon=%g,epoch=%g,step=%g,dark=%g",
			1+rng.Intn(3), seed, horizon, horizon/float64(1+rng.Intn(4)), step, float64(rng.Intn(3))/4)
		spec, err := ParseSpec(text)
		if err != nil {
			return true
		}
		cfg := spec.Config()
		cfg.Profile = prof.New()
		cfg.ProfileScope = "fleet"
		_, res, err := run(cfg)
		if err != nil {
			return true
		}
		booked := make(map[string]float64)
		for _, e := range cfg.Profile.Entries() {
			booked[e.Scope.Node] = e.Ledger.TotalSeconds()
		}
		for i, sim := range res.Lanes {
			pr := sim.Progress()
			stepped := float64(pr.Steps) * spec.Step
			if got := booked[nodeStream(i)]; math.Abs(got-stepped) > 1e-9 {
				t.Logf("%s: node %d booked %.12g s for %d steps (%.12g s)", text, i, got, pr.Steps, stepped)
				return false
			}
			if out := sim.Outcome(); !out.Completed && !out.Stopped && math.Abs(stepped-spec.Horizon) > 1e-9 {
				t.Logf("%s: unfinished node %d stepped %.12g s, want the horizon", text, i, stepped)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
