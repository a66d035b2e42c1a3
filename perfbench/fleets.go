package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/prof"
)

// Fleet geometries. fleet-lit is the default fleet spec at n=1000: every
// node steps verbatim and about 30% retire early. fleet-dark is the
// geometry of the repository's BenchmarkFleetDark at n=1000: a 99% exactly
// dark tail that fast-forward skips and the energy ledger steps through.
const (
	litSpecFmt    = "n=1000,seed=%d"
	darkSpecFmt   = "n=1000,seed=%d,horizon=10,epoch=0.1,step=2e-4,dark=0.99"
	parseBatches  = 3    // set-up samples taken after each measured fleet run
	specParseLoop = 5000 // parses timed together in one set-up sample
)

// fleetDigests pins the report bytes of both fleet workloads for the
// seeds recorded with -record-digests, so a change to simulated output
// fails the benchmark instead of passing as a speed-up.
//
//go:embed fleet_digests.json
var fleetDigestsJSON []byte

type digestTable map[string]map[string]string // workload → seed → sha256

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(fleetDigestsJSON, &t); err != nil {
		return nil, fmt.Errorf("fleet_digests.json: %w", err)
	}
	return t, nil
}

// want returns the recorded digest of workload at seed, if any.
func (t digestTable) want(workload string, seed int64) (string, bool) {
	d, ok := t[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parseSpecTimed is the fleet workloads' set-up: parsing the spec. It
// returns the spec and the first set-up sample (see parseTime).
func parseSpecTimed(text string) (fleet.Spec, float64, error) {
	spec, err := fleet.ParseSpec(text)
	if err != nil {
		return spec, 0, err
	}
	return spec, parseTime(text), nil
}

// parseTime is one set-up sample: host seconds per parse of text, which
// must parse, over a batch of parses started from a collected heap. The
// fleet workloads also take parseBatches samples after every measured
// run, so the median they report covers the whole window rather than its
// first milliseconds.
func parseTime(text string) float64 {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < specParseLoop; i++ {
		_, _ = fleet.ParseSpec(text)
	}
	return time.Since(t0).Seconds() / specParseLoop
}

// fleetResult is one fleet.Run as the driver saw it.
type fleetResult struct {
	report []byte          // the text report
	wall   time.Duration   // host time of fleet.Run
	epochs []time.Duration // host time between OnEpoch calls (the first from the run's start)
	err    error
}

// fleetRun runs cfg once, recording a fleet.run span with one fleet.epoch
// child per OnEpoch interval.
func fleetRun(b *bench, cfg fleet.Config, parent int) fleetResult {
	var res fleetResult
	var marks []time.Time
	cfg.OnEpoch = func(fleet.Snapshot) { marks = append(marks, time.Now()) }
	t0 := time.Now()
	rep, err := fleet.Run(cfg)
	end := time.Now()
	res.wall = end.Sub(t0)
	if err != nil {
		res.err = err
		return res
	}
	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		res.err = err
		return res
	}
	res.report = buf.Bytes()
	run := b.rec.add("fleet.run", parent, t0, end)
	prev := t0
	for _, m := range marks {
		res.epochs = append(res.epochs, m.Sub(prev))
		b.rec.add("fleet.epoch", run, prev, m)
		prev = m
	}
	return res
}

// checkFleet counts one fleet run as an operation and checks its bytes
// against the reference digest and, when recorded, the pinned one.
func checkFleet(b *bench, what string, res fleetResult, ref string, pinned string, havePinned bool) {
	b.attempt()
	switch {
	case res.err != nil:
		b.fail("%s: %v", what, res.err)
	case digest(res.report) != ref:
		b.fail("%s: report bytes differ from the reference run", what)
	case havePinned && digest(res.report) != pinned:
		b.fail("%s: report digest differs from fleet_digests.json", what)
	}
}

// runFleetLit steps a lit fleet at workers = nproc, batch 0.
func runFleetLit(b *bench) error {
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	text := fmt.Sprintf(litSpecFmt, b.seed)
	spec, setup, err := parseSpecTimed(text)
	if err != nil {
		return err
	}
	setups := []float64{setup}
	cfg := spec.Config()
	cfg.Workers = b.workers
	var runs []fleetResult
	var walls, slowest []time.Duration
	b.window(func() {
		res := fleetRun(b, cfg, 0)
		for i := 0; i < parseBatches; i++ {
			setups = append(setups, parseTime(text))
		}
		runs = append(runs, res)
		walls = append(walls, res.wall)
		var top time.Duration
		for _, e := range res.epochs {
			top = max(top, e)
		}
		slowest = append(slowest, top)
	})
	// Reference: one worker, one lane per group, fast-forward off — the
	// verbatim scalar path every execution setting must agree with.
	refCfg := spec.Config()
	refCfg.Workers, refCfg.Batch, refCfg.NoFastForward = 1, 1, true
	ref := fleetRun(b, refCfg, 0)
	pinned, havePinned := digests.want("fleet-lit", b.seed)
	if !b.op(ref.err) {
		return nil
	}
	refDigest := digest(ref.report)
	if havePinned && refDigest != pinned {
		b.fail("fleet-lit reference: report digest differs from fleet_digests.json")
	}
	for i, res := range runs {
		checkFleet(b, fmt.Sprintf("fleet-lit run %d", i), res, refDigest, pinned, havePinned)
	}
	n := len(runs)
	p50 := median(msAll(walls))
	b.metrics.set("items_per_s", float64(spec.N)/(p50/1e3), n)
	b.metrics.set("p50_ms", p50, n)
	b.metrics.set("heavy_p50_ms", median(msAll(slowest)), n)
	b.metrics.set("setup_s", median(setups), len(setups))
	return nil
}

// darkIteration is one fleet-dark iteration: the fleet plain, then again
// with an energy profile attached, then the profile exported as pprof.
type darkIteration struct {
	plain, profiled fleetResult
	export          time.Duration // WritePprof host time
	pprof           []byte
}

// wall is the iteration's host time: both runs and the export.
func (it darkIteration) wall() time.Duration { return it.plain.wall + it.profiled.wall + it.export }

func darkRun(b *bench, spec fleet.Spec, parent int) darkIteration {
	var it darkIteration
	cfg := spec.Config()
	cfg.Workers = b.workers
	it.plain = fleetRun(b, cfg, parent)
	cfg.Profile = prof.New()
	cfg.ProfileScope = "fleet"
	it.profiled = fleetRun(b, cfg, parent)
	if it.profiled.err != nil {
		return it
	}
	var buf bytes.Buffer
	t0 := time.Now()
	err := prof.WritePprof(&buf, cfg.Profile)
	it.export = time.Since(t0)
	b.rec.add("prof.write_pprof", parent, t0, t0.Add(it.export))
	if err != nil {
		it.profiled.err = fmt.Errorf("write pprof: %w", err)
	}
	it.pprof = buf.Bytes()
	return it
}

// checkDark counts the iteration's two runs as operations: the plain
// report must match the first iteration's and the pinned digest, the
// profiled report must equal the plain one, and the profile must account
// for exactly N × horizon simulated seconds.
func checkDark(b *bench, i int, it darkIteration, spec fleet.Spec, ref, pinned string, havePinned bool) {
	checkFleet(b, fmt.Sprintf("fleet-dark plain %d", i), it.plain, ref, pinned, havePinned)
	b.attempt()
	if it.profiled.err != nil {
		b.fail("fleet-dark profiled %d: %v", i, it.profiled.err)
		return
	}
	if !bytes.Equal(it.profiled.report, it.plain.report) {
		b.fail("fleet-dark profiled %d: report differs from the plain run", i)
		return
	}
	if err := checkSimSeconds(it.pprof, spec); err != nil {
		b.fail("fleet-dark profiled %d: %v", i, err)
	}
}

// checkSimSeconds decodes the exported profile and compares its
// sim_seconds total with N × horizon, allowing the sub-nanosecond rounding
// of each sample.
func checkSimSeconds(data []byte, spec fleet.Spec) error {
	d, err := prof.ReadPprof(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for i, st := range d.SampleTypes {
		if st.Type != "sim_seconds" {
			continue
		}
		got := d.Total(i)
		want := int64(float64(spec.N)*spec.Horizon*1e9 + 0.5)
		if diff := got - want; diff > int64(len(d.Samples)) || -diff > int64(len(d.Samples)) {
			return fmt.Errorf("profile sim_seconds %d ns, want N×horizon = %d ns", got, want)
		}
		return nil
	}
	return fmt.Errorf("profile has no sim_seconds sample type")
}

// runFleetDark runs the mostly-dark fleet plain and profiled.
func runFleetDark(b *bench) error {
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	text := fmt.Sprintf(darkSpecFmt, b.seed)
	spec, setup, err := parseSpecTimed(text)
	if err != nil {
		return err
	}
	setups := []float64{setup}
	pinned, havePinned := digests.want("fleet-dark", b.seed)
	var its []darkIteration
	var plain, heavy, walls []time.Duration
	b.window(func() {
		it := darkRun(b, spec, 0)
		for i := 0; i < parseBatches; i++ {
			setups = append(setups, parseTime(text))
		}
		its = append(its, it)
		plain = append(plain, it.plain.wall)
		heavy = append(heavy, it.profiled.wall+it.export)
		walls = append(walls, it.wall())
	})
	ref := digest(its[0].plain.report)
	for i, it := range its {
		checkDark(b, i, it, spec, ref, pinned, havePinned)
	}
	n := len(its)
	b.metrics.set("items_per_s", float64(2*spec.N)/median(msAll(walls))*1e3, n)
	b.metrics.set("p50_ms", median(msAll(plain)), n)
	b.metrics.set("heavy_p50_ms", median(msAll(heavy)), n)
	b.metrics.set("setup_s", median(setups), len(setups))
	return nil
}

// litLayers is the fleet-lit section of the layer table: the lit fleet at
// nproc workers and at one, for the epoch times and the parallel speedup.
func litLayers(b *bench) error {
	spec, err := fleet.ParseSpec(fmt.Sprintf(litSpecFmt, b.seed))
	if err != nil {
		return err
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	cfg := spec.Config()
	cfg.Workers = b.workers
	var runs []fleetResult
	if b.workload == "fleet-lit" {
		b.untraced(func() { runs = append(runs, fleetRun(b, cfg, 0)) })
	}
	par := fleetRun(b, cfg, 0)
	if len(runs) > 0 {
		b.overhead(runs[0].wall, par.wall)
	}
	cfg.Workers = 1
	one := fleetRun(b, cfg, 0)
	pinned, havePinned := digests.want("fleet-lit", b.seed)
	for i, res := range append(runs, par, one) {
		checkFleet(b, fmt.Sprintf("fleet-lit layer run %d", i), res, digest(one.report), pinned, havePinned)
	}
	if par.err != nil || one.err != nil {
		return fmt.Errorf("fleet-lit layer runs failed")
	}
	ep := summarize(msAll(par.epochs))
	b.metrics.set("fleet.epoch_ms_p50", ep.P50, ep.N)
	b.metrics.set("fleet.epoch_ms_max", ep.Max, ep.N)
	b.metrics.set("fleet.parallel_speedup", float64(sum(one.epochs))/float64(sum(par.epochs)), len(par.epochs))
	return nil
}

// darkLayers is the fleet-dark section of the layer table: one plain and
// one profiled pass, for the ledger's slowdown and the export cost.
func darkLayers(b *bench) error {
	spec, err := fleet.ParseSpec(fmt.Sprintf(darkSpecFmt, b.seed))
	if err != nil {
		return err
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	var its []darkIteration
	if b.workload == "fleet-dark" {
		b.untraced(func() { its = append(its, darkRun(b, spec, 0)) })
	}
	it := darkRun(b, spec, 0)
	if len(its) > 0 {
		b.overhead(its[0].wall(), it.wall())
	}
	pinned, havePinned := digests.want("fleet-dark", b.seed)
	for i, x := range append(its, it) {
		checkDark(b, i, x, spec, digest(it.plain.report), pinned, havePinned)
	}
	if it.plain.err != nil || it.profiled.err != nil {
		return fmt.Errorf("fleet-dark layer runs failed")
	}
	de := summarize(msAll(it.plain.epochs))
	b.metrics.set("fleet.dark_epoch_ms_p50", de.P50, de.N)
	b.metrics.set("prof.ledger_slowdown", float64(it.profiled.wall)/float64(it.plain.wall), 1)
	b.metrics.set("prof.write_pprof_ms", ms(it.export), 1)
	return nil
}

// writeDigests records the report digests of both fleet workloads for
// seeds 0..n-1 into path. The bytes do not depend on the worker count.
func writeDigests(path string, n, workers int) error {
	t := digestTable{"fleet-lit": {}, "fleet-dark": {}}
	for seed := int64(0); seed < int64(n); seed++ {
		for workload, format := range map[string]string{"fleet-lit": litSpecFmt, "fleet-dark": darkSpecFmt} {
			spec, err := fleet.ParseSpec(fmt.Sprintf(format, seed))
			if err != nil {
				return err
			}
			cfg := spec.Config()
			cfg.Workers = workers
			rep, err := fleet.Run(cfg)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := rep.Report(&buf); err != nil {
				return err
			}
			t[workload][strconv.FormatInt(seed, 10)] = digest(buf.Bytes())
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
