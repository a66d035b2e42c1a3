package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/weather"
)

// probeMin is the least host time one probe measures for.
const probeMin = 150 * time.Millisecond

// Lanes of the batch-lane probe: one 64-lane circuit.Group.
const probeLanes = 64

// timeOp calls fn, which performs ops operations, until probeMin has
// passed, inside one probe.<name> span, and returns host ns per operation.
func timeOp(b *bench, name string, ops int, fn func()) float64 {
	sp := b.rec.open("probe."+name, 0)
	defer sp.done()
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < probeMin {
		fn()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*ops)
}

// nodeConfig builds fleet node id's circuit configuration the way the
// fleet engine builds it (internal/fleet/node.go), from the packages'
// public constructors, so the circuit probes step the workloads' nodes.
func nodeConfig(spec fleet.Spec, id int) (circuit.Config, error) {
	stream := fmt.Sprintf("node/%07d", id)
	gen := weather.NewSeededGenerator(
		fault.StreamSeed(spec.Seed, stream, "weather"),
		weather.WithDwellTimes(spec.Horizon/6, spec.Horizon/10),
		weather.WithRelaxationTime(spec.Horizon/25),
	)
	sky, err := gen.Trace(spec.Horizon, spec.Horizon/256, nil)
	if err != nil {
		return circuit.Config{}, err
	}
	trim := rand.New(rand.NewSource(fault.StreamSeed(spec.Seed, stream, "trim")))
	v0 := 0.9 + 0.8*trim.Float64()
	cycles := 2.0e6 + 6.0e6*trim.Float64()
	aux := 0.1e-3 + 0.4e-3*trim.Float64()
	site := 0.12 + 0.88*trim.Float64()
	cut := (1 - spec.Dark) * spec.Horizon
	for i := range sky.Samples {
		sky.Samples[i] *= site
		if spec.Dark > 0 && float64(i)*sky.Step >= cut {
			sky.Samples[i] = 0
		}
	}
	storage, err := cap.New(100e-6, v0, 2.0)
	if err != nil {
		return circuit.Config{}, err
	}
	return circuit.Config{
		Cell:             pv.NewCell(),
		Proc:             cpu.NewProcessor(),
		Reg:              reg.NewSC(),
		Cap:              storage,
		IrradianceSource: sky,
		Controller:       &sched.DeadlineController{Cycles: cycles, Deadline: 0.8 * spec.Horizon, Sprint: 0.20, AllowBypass: true},
		AuxLoad:          func(float64) float64 { return aux },
		Step:             spec.Step,
		MaxTime:          spec.Horizon,
		JobCycles:        cycles,
	}, nil
}

// probeLayers measures the pv, cpu and circuit layers on inputs taken from
// the workloads: the ExtShading patterns, the lit fleet's node
// configurations and the dark fleet's node with and without a ledger.
// Every probe's output is checked against the layer's reference path.
func probeLayers(b *bench) error {
	lit, err := fleet.ParseSpec(fmt.Sprintf(litSpecFmt, b.seed))
	if err != nil {
		return err
	}
	dark, err := fleet.ParseSpec(fmt.Sprintf(darkSpecFmt, b.seed))
	if err != nil {
		return err
	}
	for _, spec := range []fleet.Spec{lit, dark} {
		if err := checkNodeConfig(b, spec); err != nil {
			return err
		}
	}
	if err := probeArray(b); err != nil {
		return err
	}
	probeCell(b, lit)
	probeCPU(b)
	return probeCircuit(b, lit, dark)
}

// checkNodeConfig ties nodeConfig to the fleet engine: node 0 of spec,
// run alone to the horizon, must end exactly where a one-node fleet.Run
// of the same spec ends. A mismatch means the probes step nodes that no
// workload runs, and fails the run.
func checkNodeConfig(b *bench, spec fleet.Spec) error {
	spec.N = 1
	fcfg := spec.Config()
	fcfg.Workers = 1
	rep, err := fleet.Run(fcfg)
	if err != nil {
		return err
	}
	cfg, err := nodeConfig(spec, 0)
	if err != nil {
		return err
	}
	sim, err := circuit.New(cfg)
	if err != nil {
		return err
	}
	out, err := sim.Run()
	if err != nil {
		return err
	}
	b.attempt()
	if out.EnergyHarvested != rep.EnergyHarvested || out.EnergyDelivered != rep.EnergyDelivered ||
		out.EnergyAux != rep.EnergyAux || out.FinalCapVoltage != rep.MeanFinalVcap ||
		out.Completed != (rep.Completed == 1) || out.BrownedOut != (rep.BrownedOut == 1) {
		b.fail("probe node config for %s differs from the fleet engine's node 0", spec)
	}
	return nil
}

// probeArray times pv.Array's MPP searches on the three ExtShading
// patterns and checks them against the experiment's own result.
func probeArray(b *bench) error {
	want, err := expt.ExtShading()
	if err != nil {
		return err
	}
	arr, err := pv.NewArray([]*pv.Cell{pv.NewCell(), pv.NewCell(), pv.NewCell()})
	if err != nil {
		return err
	}
	patterns := want.Patterns
	global := make([]float64, len(patterns))
	b.metrics.set("pv.array_global_mpp_ms", 1e-6*timeOp(b, "pv.array_global_mpp", len(patterns), func() {
		for i, p := range patterns {
			_, global[i] = arr.GlobalMPP(p)
		}
	}), len(patterns))
	locals := make([][]float64, len(patterns))
	b.metrics.set("pv.array_local_mpps_ms", 1e-6*timeOp(b, "pv.array_local_mpps", len(patterns), func() {
		for i, p := range patterns {
			locals[i] = arr.LocalMPPs(p)
		}
	}), len(patterns))
	for i, p := range patterns {
		worst := global[i]
		for _, v := range locals[i] {
			worst = min(worst, arr.Power(v, p))
		}
		b.attempt()
		if global[i] != want.GlobalPower[i] || worst != want.WorstLocal[i] {
			b.fail("pv.Array on pattern %v: MPPs differ from ExtShading", p)
		}
	}
	return nil
}

// probeCell times the cell solves at fleet width: one (voltage,
// irradiance) lane per lit-fleet node, from the node's initial charge and
// its sky at mid-horizon.
func probeCell(b *bench, lit fleet.Spec) {
	cell := pv.NewCell()
	vs := make([]float64, lit.N)
	irrs := make([]float64, lit.N)
	for id := range vs {
		cfg, err := nodeConfig(lit, id)
		if err != nil {
			b.op(err)
			return
		}
		vs[id] = cfg.Cap.Voltage()
		irrs[id] = cfg.IrradianceSource.At(lit.Horizon / 2)
	}
	ref := make([]float64, lit.N)
	b.metrics.set("pv.cell_current_ref_ns", timeOp(b, "pv.cell_current_ref", lit.N, func() {
		for k := range vs {
			ref[k] = cell.CurrentReference(vs[k], irrs[k])
		}
	}), lit.N)
	states := make([]pv.SolverState, lit.N)
	warm := make([]float64, lit.N)
	b.metrics.set("pv.cell_current_warm_ns", timeOp(b, "pv.cell_current_warm", lit.N, func() {
		for k := range vs {
			warm[k] = cell.CurrentWarm(vs[k], irrs[k], &states[k])
		}
	}), lit.N)
	bs := pv.NewBatchSolver(lit.N)
	batch := make([]float64, lit.N)
	b.metrics.set("pv.solve_batch_ns", timeOp(b, "pv.solve_batch", lit.N, func() {
		batch = cell.SolveBatch(vs, irrs, batch, bs)
	}), lit.N)
	for k := range vs {
		b.attempt()
		if warm[k] != ref[k] || batch[k] != ref[k] {
			b.fail("pv cell lane %d: warm %v, batch %v, reference %v", k, warm[k], batch[k], ref[k])
		}
	}
}

// probeCPU times the processor model over a supply-voltage sweep of its
// whole operating range.
func probeCPU(b *bench) {
	const points = 1000
	proc := cpu.NewProcessor()
	vs := make([]float64, points)
	for i := range vs {
		vs[i] = proc.MinVoltage() + (proc.MaxVoltage()-proc.MinVoltage())*float64(i)/(points-1)
	}
	fs := make([]float64, points)
	b.metrics.set("cpu.max_frequency_ns", timeOp(b, "cpu.max_frequency", points, func() {
		for i, v := range vs {
			fs[i] = proc.MaxFrequency(v)
		}
	}), points)
	var state cpu.FreqSolverState
	got := make([]float64, points)
	errs := make([]error, points)
	b.metrics.set("cpu.voltage_for_frequency_warm_ns", timeOp(b, "cpu.voltage_for_frequency_warm", points, func() {
		for i, f := range fs {
			got[i], errs[i] = proc.VoltageForFrequencyWarm(f, &state)
		}
	}), points)
	for i, f := range fs {
		want, err := proc.VoltageForFrequency(f)
		b.attempt()
		if err != nil || errs[i] != nil || got[i] != want {
			b.fail("cpu: VoltageForFrequencyWarm(%g) = %v (%v), cold solve %v (%v)", f, got[i], errs[i], want, err)
		}
	}
}

// stepping times build, then stepping to the horizon, until probeMin of
// stepping has passed, inside one probe.<name> span. It returns host ns
// per step (set-up excluded) and the last build's lanes' progress.
func stepping(b *bench, name string, horizon float64, build func() (*circuit.BatchStepper, error)) (float64, []circuit.Progress, error) {
	sp := b.rec.open("probe."+name, 0)
	defer sp.done()
	var busy time.Duration
	steps := 0
	var last []circuit.Progress
	for busy < probeMin {
		group, err := build()
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		_, err = group.StepTo(horizon)
		busy += time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		last = last[:0]
		for i := 0; i < group.Len(); i++ {
			p := group.Lane(i).Progress()
			steps += p.Steps
			last = append(last, p)
		}
	}
	return float64(busy.Nanoseconds()) / float64(steps), last, nil
}

// probeCircuit times the step kernel on lit node 0 alone (Simulator.StepTo)
// and on lit nodes 0..63 as one lane group, and measures fast-forward's
// skip ratio on dark node 0 with and without a ledger attached.
func probeCircuit(b *bench, lit, dark fleet.Spec) error {
	single, one, err := stepping(b, "circuit.step", lit.Horizon, func() (*circuit.BatchStepper, error) {
		cfg, err := nodeConfig(lit, 0)
		if err != nil {
			return nil, err
		}
		sim, err := circuit.New(cfg)
		if err != nil {
			return nil, err
		}
		group := circuit.Group([]*circuit.Simulator{sim})
		return &group, nil
	})
	if err != nil {
		return err
	}
	b.metrics.set("circuit.step_ns", single, one[0].Steps)
	lanes, many, err := stepping(b, "circuit.batch_lane_step", lit.Horizon, func() (*circuit.BatchStepper, error) {
		cfgs := make([]circuit.Config, probeLanes)
		for id := range cfgs {
			var err error
			if cfgs[id], err = nodeConfig(lit, id); err != nil {
				return nil, err
			}
		}
		return circuit.NewBatch(cfgs)
	})
	if err != nil {
		return err
	}
	b.metrics.set("circuit.batch_lane_step_ns", lanes, probeLanes)
	b.attempt()
	if many[0] != one[0] {
		b.fail("circuit: lit node 0 as lane 0 of a group ended at %+v, alone at %+v", many[0], one[0])
	}

	plain, err := darkProgress(b, dark, false)
	if err != nil {
		return err
	}
	ledger, err := darkProgress(b, dark, true)
	if err != nil {
		return err
	}
	b.metrics.set("circuit.ffwd_skip_ratio", float64(plain.StepsSkipped)/float64(plain.Steps), plain.Steps)
	b.metrics.set("circuit.ffwd_skip_ratio_ledger", float64(ledger.StepsSkipped)/float64(ledger.Steps), ledger.Steps)
	b.attempt()
	ledger.StepsSkipped = plain.StepsSkipped
	if ledger != plain {
		b.fail("circuit: dark node 0 with a ledger ended at %+v, without at %+v", ledger, plain)
	}
	return nil
}

// darkProgress steps dark node 0 to the horizon, with a ledger when led.
func darkProgress(b *bench, dark fleet.Spec, led bool) (circuit.Progress, error) {
	name := "probe.circuit.ffwd"
	if led {
		name += "_ledger"
	}
	sp := b.rec.open(name, 0)
	defer sp.done()
	cfg, err := nodeConfig(dark, 0)
	if err != nil {
		return circuit.Progress{}, err
	}
	if led {
		cfg.Ledger = &prof.Ledger{}
	}
	sim, err := circuit.New(cfg)
	if err != nil {
		return circuit.Progress{}, err
	}
	if _, err := sim.StepTo(dark.Horizon); err != nil {
		return circuit.Progress{}, err
	}
	return sim.Progress(), nil
}
