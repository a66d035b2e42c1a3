// Command benchguard is the benchmark regression gate for the hot paths.
// Two suites are guarded, each with its own committed baseline:
//
//   - serve (BENCH_serve.json): PV solve cached and uncached, one registry
//     report render, and the cached experiment HTTP handler.
//   - sim (BENCH_sim.json): the simulation kernel — the warm-started PV
//     solve at constant and at per-call varying irradiance versus the
//     stateless bisection reference, the batched sweep
//     solver at width 1 and 10k, a 2000-step circuit run with energy
//     profiling off and on, a 16-lane circuit.RunBatch, pv.Array's global
//     MPP search under partial shading, a mostly-dark fleet with
//     fast-forward on, off and profiled, and three full registry
//     experiments end to end: fig11b, and ext-weather and
//     ext-intermittent, the two that dominate `hemsim all`.
//
// It measures each path in-process, writes the measured ns/op to a JSON
// file, and exits non-zero if any path regressed more than the tolerance
// versus the committed baseline (-report-only prints regressions without
// failing, for noisy CI runners). CI runs it after the unit tests; refresh
// a baseline deliberately with -update after an intentional performance
// change.
//
// Usage:
//
//	benchguard [-suite serve|sim] [-baseline FILE] [-out measured.json]
//	           [-tolerance 0.25] [-benchtime 200ms] [-update] [-report-only]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/serve"
)

// baselineFile is the on-disk schema of BENCH_serve.json.
type baselineFile struct {
	Note       string             `json:"note"`
	Benchmarks map[string]float64 `json:"benchmarks"` // name -> ns/op
}

// hotPath runs n iterations of one guarded operation.
type hotPath func(n int) error

// hotPaths returns the guarded paths keyed by name. Shared state (the
// server, the uncached-irradiance counter) lives in the closures so warm-up
// and measurement see the same world.
func hotPaths() map[string]hotPath {
	cell := pv.NewCell()
	h := serve.New(serve.Config{}).Handler()
	uncachedIrr := 0.5

	return map[string]hotPath{
		"pv_solve_cached": func(n int) error {
			for i := 0; i < n; i++ {
				cell.MPP(pv.FullSun)
			}
			return nil
		},
		"pv_solve_uncached": func(n int) error {
			for i := 0; i < n; i++ {
				// A fresh key every iteration forces the full solve.
				uncachedIrr += 1e-9
				cell.MPP(uncachedIrr)
			}
			return nil
		},
		"report_render": func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := expt.Render("fig3"); err != nil {
					return err
				}
			}
			return nil
		},
		"http_experiment_cached": func(n int) error {
			for i := 0; i < n; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/experiments/fig3", nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler status %d: %s", rec.Code, rec.Body)
				}
			}
			return nil
		},
	}
}

// benchSink keeps measured loops from being optimised away.
var benchSink float64

// simPaths returns the simulation-kernel paths guarded by BENCH_sim.json.
// The warm paths keep one pv.SolverState alive across iterations, mirroring
// how circuit.State threads it through a run; the voltage ramps in µV steps
// so consecutive solves stay close, like vcap between timesteps. The
// varying path also moves irradiance every call, as an interpolated weather
// trace does, so each replay starts from the full bracket.
func simPaths() map[string]hotPath {
	cell := pv.NewCell()
	var state, varyState pv.SolverState
	warmIdx, varyIdx, refIdx := 0, 0, 0
	rampVoltage := func(i int) float64 { return 0.95 + 1e-6*float64(i%1000) }
	rampIrradiance := func(i int) float64 { return 0.8 + 1e-7*float64(i%1000) }

	// ext-shading's graded pattern on its three-cell string: the array
	// solve that once took over half of `hemsim all`.
	arr, err := pv.NewArray([]*pv.Cell{pv.NewCell(), pv.NewCell(), pv.NewCell()})
	if err != nil {
		panic(err)
	}
	gradedShading := []float64{1.0, 0.5, 0.15}

	// The batched sweep: the BenchmarkKernelBatch grid (10k points at 1 µV
	// spacing around the knee) solved through SolveBatch in chunks. Width 1
	// is a cold scalar solve per point; width 10k chains the walking solver
	// state across the whole sweep — the batch speedup under guard.
	const sweepPoints = 10000
	sweepVs := make([]float64, sweepPoints)
	for i := range sweepVs {
		sweepVs[i] = 0.995 + 0.01*float64(i)/sweepPoints
	}
	sweepIrr := []float64{0.8}
	sweepOut := make([]float64, sweepPoints)
	sweep := func(width int) {
		for lo := 0; lo < sweepPoints; lo += width {
			hi := lo + width
			if hi > sweepPoints {
				hi = sweepPoints
			}
			cell.SolveBatch(sweepVs[lo:hi], sweepIrr, sweepOut[lo:hi], nil)
		}
		benchSink = sweepOut[sweepPoints-1]
	}

	batchRun := func() error {
		cfgs := make([]circuit.Config, 16)
		for i := range cfgs {
			storage, err := cap.New(100e-6, 0.8+0.05*float64(i%8), 2.0)
			if err != nil {
				return err
			}
			cfgs[i] = circuit.Config{
				Cell:        cell,
				Proc:        cpu.NewProcessor(),
				Reg:         reg.NewSC(),
				Cap:         storage,
				Irradiance:  circuit.ConstantIrradiance(0.2 + 0.1*float64(i%5)),
				Controller:  &circuit.FixedPoint{Supply: 0.5},
				ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
				Step:        5e-6,
				MaxTime:     500 * 5e-6,
			}
		}
		_, err := circuit.RunBatch(cfgs)
		return err
	}

	// led == nil is the production default (profiling off); the paired
	// profile_on/profile_off entries guard the observer's overhead and,
	// more importantly, that the off path stays free.
	circuitRun := func(led *prof.Ledger) error {
		storage, err := cap.New(100e-6, 1.0, 2.0)
		if err != nil {
			return err
		}
		sim, err := circuit.New(circuit.Config{
			Cell:        cell,
			Proc:        cpu.NewProcessor(),
			Reg:         reg.NewSC(),
			Cap:         storage,
			Irradiance:  circuit.ConstantIrradiance(1.0),
			Controller:  &circuit.FixedPoint{Supply: 0.5},
			ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
			Step:        5e-6,
			MaxTime:     2000 * 5e-6,
			Ledger:      led,
		})
		if err != nil {
			return err
		}
		_, err = sim.Run()
		return err
	}

	return map[string]hotPath{
		"cell_current_warm": func(n int) error {
			for i := 0; i < n; i++ {
				benchSink = cell.CurrentWarm(rampVoltage(warmIdx), 0.8, &state)
				warmIdx++
			}
			return nil
		},
		"cell_current_warm_varying": func(n int) error {
			for i := 0; i < n; i++ {
				benchSink = cell.CurrentWarm(rampVoltage(varyIdx), rampIrradiance(varyIdx), &varyState)
				varyIdx++
			}
			return nil
		},
		"cell_current_reference": func(n int) error {
			for i := 0; i < n; i++ {
				benchSink = cell.CurrentReference(rampVoltage(refIdx), 0.8)
				refIdx++
			}
			return nil
		},
		// The same body as pv's BenchmarkGlobalMPP.
		"array_global_mpp": func(n int) error {
			for i := 0; i < n; i++ {
				_, benchSink = arr.GlobalMPP(gradedShading)
			}
			return nil
		},
		"circuit_run_2000step": func(n int) error {
			for i := 0; i < n; i++ {
				if err := circuitRun(nil); err != nil {
					return err
				}
			}
			return nil
		},
		// The same 2000-step run with the energy ledger detached/attached:
		// off must track circuit_run_2000step (the nil check is the whole
		// cost), on bounds the per-step accounting overhead.
		"profile_off_step": func(n int) error {
			for i := 0; i < n; i++ {
				if err := circuitRun(nil); err != nil {
					return err
				}
			}
			return nil
		},
		"profile_on_step": func(n int) error {
			var led prof.Ledger
			for i := 0; i < n; i++ {
				if err := circuitRun(&led); err != nil {
					return err
				}
			}
			benchSink = led.TotalJoules()
			return nil
		},
		"sim_full_run":     fullRun("fig11b"),
		"ext_weather":      fullRun("ext-weather"),
		"ext_intermittent": fullRun("ext-intermittent"),
		"batch_solve_sweep_w1": func(n int) error {
			for i := 0; i < n; i++ {
				sweep(1)
			}
			return nil
		},
		"batch_solve_sweep_w10k": func(n int) error {
			for i := 0; i < n; i++ {
				sweep(sweepPoints)
			}
			return nil
		},
		// 16 lanes x 500 steps on one contiguous slab, the shape a fleet
		// worker advances per epoch.
		"batch_run_16lane": func(n int) error {
			for i := 0; i < n; i++ {
				if err := batchRun(); err != nil {
					return err
				}
			}
			return nil
		},
		// The fleet engine end to end: 50 nodes, 500 steps each. The
		// companion BenchmarkFleetRun (repo root) reports nodes/sec at
		// N=100/1k/10k; this entry is the regression gate.
		"fleet_run_50node": func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := fleet.Run(fleet.Config{
					Nodes: 50, Seed: 1, Horizon: 0.01, Epoch: 2e-3, Step: 2e-5,
				}); err != nil {
					return err
				}
			}
			return nil
		},
		// Event-horizon fast-forward on a mostly-dark fleet, scaled down
		// from BenchmarkFleetDark (repo root, 10k nodes): the same
		// geometry at 50 nodes. The pair pins the skip path's speedup in
		// the baseline — fleet_dark_noffwd / fleet_dark_ffwd is the
		// recorded ratio, and fleet_dark_ffwd alone guards the skip
		// machinery against regressions. fleet_dark_profiled attaches an
		// energy profile to the ffwd geometry: the ledger rides the skip
		// path, so fleet_dark_profiled / fleet_dark_ffwd stays near 1.
		"fleet_dark_ffwd":     darkFleet(false, false),
		"fleet_dark_noffwd":   darkFleet(true, false),
		"fleet_dark_profiled": darkFleet(false, true),
	}
}

// fullRun renders one registry experiment end to end per iteration.
func fullRun(id string) hotPath {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := expt.Render(id); err != nil {
				return err
			}
		}
		return nil
	}
}

// darkFleet runs the fleet_dark_* geometry: 50 nodes, 99% dark over a
// 10 s horizon, optionally verbatim or with an energy profile attached.
func darkFleet(noFF, profiled bool) hotPath {
	return func(n int) error {
		for i := 0; i < n; i++ {
			cfg := fleet.Config{
				Nodes: 50, Seed: 1, Horizon: 10.0, Epoch: 0.1, Step: 2e-4, Dark: 0.99,
				NoFastForward: noFF,
			}
			if profiled {
				cfg.Profile = prof.New()
			}
			if _, err := fleet.Run(cfg); err != nil {
				return err
			}
		}
		return nil
	}
}

// measure times p until the budget is spent and returns ns/op. One
// untimed warm-up iteration absorbs cold caches and lazy allocations.
func measure(p hotPath, budget time.Duration) (float64, error) {
	if err := p(1); err != nil {
		return 0, err
	}
	n := 1
	for {
		start := time.Now()
		if err := p(n); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if elapsed >= budget || n >= 1e8 {
			return float64(elapsed.Nanoseconds()) / float64(n), nil
		}
		// Grow toward the budget with 20% overshoot, at least doubling.
		next := int(float64(n) * 1.2 * float64(budget) / float64(elapsed+1))
		if next < 2*n {
			next = 2 * n
		}
		n = next
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		suite        = fs.String("suite", "serve", "path suite to guard: serve or sim")
		baselinePath = fs.String("baseline", "", "committed baseline to compare against (default BENCH_<suite>.json)")
		outPath      = fs.String("out", "", "also write measured ns/op to this file")
		tolerance    = fs.Float64("tolerance", 0.25, "allowed fractional regression per path")
		benchtime    = fs.Duration("benchtime", 200*time.Millisecond, "measurement budget per path")
		update       = fs.Bool("update", false, "rewrite the baseline instead of comparing")
		reportOnly   = fs.Bool("report-only", false, "print regressions but exit zero (for noisy runners)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var paths map[string]hotPath
	switch *suite {
	case "serve":
		paths = hotPaths()
	case "sim":
		paths = simPaths()
	default:
		return fmt.Errorf("unknown suite %q (want serve or sim)", *suite)
	}
	if *baselinePath == "" {
		*baselinePath = "BENCH_" + *suite + ".json"
	}
	names := make([]string, 0, len(paths))
	for n := range paths {
		names = append(names, n)
	}
	sort.Strings(names)

	measured := baselineFile{
		Note: fmt.Sprintf("ns/op baselines for the %s hot paths; refresh deliberately with: go run ./cmd/benchguard -suite %s -update",
			*suite, *suite),
		Benchmarks: make(map[string]float64, len(names)),
	}
	for _, name := range names {
		nsop, err := measure(paths[name], *benchtime)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		measured.Benchmarks[name] = nsop
		fmt.Printf("%-24s %14.1f ns/op\n", name, nsop)
	}

	writeTo := *outPath
	if *update {
		writeTo = *baselinePath
	}
	if writeTo != "" {
		blob, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writeTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *update {
		fmt.Printf("baseline %s rewritten\n", *baselinePath)
		return nil
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline missing (create with -update): %w", err)
	}
	var base baselineFile
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *baselinePath, err)
	}
	var regressions []string
	for _, name := range names {
		want, ok := base.Benchmarks[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: not in baseline (refresh with -update)", name))
			continue
		}
		got := measured.Benchmarks[name]
		switch {
		case got > want*(1+*tolerance):
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (+%.0f%%, limit +%.0f%%)",
				name, got, want, 100*(got/want-1), 100**tolerance))
		case got < want*(1-*tolerance):
			fmt.Printf("note: %s improved %.0f%% — consider refreshing the baseline\n", name, 100*(1-got/want))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
		}
		if *reportOnly {
			fmt.Printf("%d hot path(s) regressed beyond +%.0f%% (report-only: not failing)\n",
				len(regressions), 100**tolerance)
			return nil
		}
		return fmt.Errorf("%d hot path(s) regressed beyond +%.0f%%", len(regressions), 100**tolerance)
	}
	fmt.Printf("all %d hot paths within +%.0f%% of baseline\n", len(names), 100**tolerance)
	return nil
}
