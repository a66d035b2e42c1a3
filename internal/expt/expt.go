// Package expt contains one driver per figure of the paper's evaluation.
// Each driver regenerates the figure's data series from the calibrated
// models and reports the headline metrics next to the values the paper
// quotes. The drivers are shared by the hemsim command-line tool and the
// benchmark suite, and their result structs are asserted (in bands) by the
// reproduction tests.
package expt

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Default experiment geometry.
const (
	// SweepPoints is the sample count of voltage sweeps.
	SweepPoints = 120

	// ChipSupply is the chip's external supply rail used when reproducing
	// the regulator characterisation figures (the test chip runs "under
	// 1.2 to 1.5 V supply").
	ChipSupply = 1.2

	// DefaultCapacitance is the storage capacitor used by the transient
	// experiments (F).
	DefaultCapacitance = 100e-6

	// DefaultCapMaxVoltage is the storage capacitor's rated voltage (V).
	DefaultCapMaxVoltage = 2.0
)

// Components bundles the default calibrated models used by every
// experiment.
//
// Thread-safety contract: every model in Components is immutable after
// construction (options apply only inside the constructors), so a
// Components value — or the individual models — may be shared freely
// across goroutines. The pv.Cell additionally memoizes its Voc/MPP/curve
// solves in a concurrency-safe package cache (pv/cache.go). Per-run
// mutable state (cap.Capacitor, circuit controllers, intermittent
// executors) is NOT shareable and must be constructed per worker; every
// driver in this package already does so by building its own storage and
// simulator per call.
type Components struct {
	Cell *pv.Cell
	Proc *cpu.Processor
	SC   *reg.SC
	Buck *reg.Buck
	LDO  *reg.LDO
}

// DefaultComponents returns the calibrated defaults.
func DefaultComponents() Components {
	return Components{
		Cell: pv.NewCell(),
		Proc: cpu.NewProcessor(),
		SC:   reg.NewSC(),
		Buck: reg.NewBuck(),
		LDO:  reg.NewLDO(),
	}
}

// NewStorageCap returns the default storage capacitor pre-charged to v.
func NewStorageCap(v float64) (*cap.Capacitor, error) {
	return cap.New(DefaultCapacitance, v, DefaultCapMaxVoltage)
}

// Observe is what one run carries besides its report: an event tracer, a
// fault plan (internal/fault) and an energy-flow profile (internal/prof).
// The zero Observe is a plain run. Each non-nil field asks for the matching
// capability. A tracer and a profile ride the run without changing it: a
// traced, profiled run writes the plain report, records the tracer-only
// events and accumulates the profile-only ledgers. A plan changes the
// physics, and so the report.
type Observe struct {
	Tracer  trace.Tracer
	Plan    *fault.Plan
	Profile *prof.Profile
}

// Caps is a set of experiment capabilities.
type Caps uint8

// The capabilities an experiment may have.
const (
	// CapSeries: the report has plottable series (CSV export).
	CapSeries Caps = 1 << iota
	// CapTrace: the run emits simulation events to Observe.Tracer.
	CapTrace
	// CapChaos: the run takes a fault plan. A plan changes the physics,
	// so a chaos run's report is not the plain report.
	CapChaos
	// CapProfile: the run accumulates exact energy-and-time ledgers into
	// Observe.Profile.
	CapProfile
)

// capErrs maps each capability to the error a request for it returns
// from an experiment that lacks it.
var capErrs = [...]struct {
	c   Caps
	err error
}{{CapSeries, ErrNoSeries}, {CapTrace, ErrNoTrace}, {CapChaos, ErrNoChaos}, {CapProfile, ErrNoProfile}}

// needs returns the capabilities o asks for.
func (o Observe) needs() Caps {
	var c Caps
	if o.Tracer != nil {
		c |= CapTrace
	}
	if o.Plan != nil {
		c |= CapChaos
	}
	if o.Profile != nil {
		c |= CapProfile
	}
	return c
}

// Experiment is one registry entry: an ID, its capability set and its
// driver. The registry is the single source of truth for what each
// experiment can do; IDs lists the experiments with a given capability.
type Experiment struct {
	ID   string
	Caps Caps
	// run executes the driver once under o, writes the report to w (nil
	// skips it) and returns the series (nil without CapSeries). nil for
	// an ID absent from the registry.
	run func(w io.Writer, o Observe) ([]plot.Series, error)
}

// require returns ErrUnknown for an ID absent from the registry, the
// ErrNo* of the first capability in c the experiment lacks, or nil.
func (e Experiment) require(c Caps) error {
	if e.run == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, e.ID)
	}
	for _, ce := range capErrs {
		if c&ce.c != 0 && e.Caps&ce.c == 0 {
			return ce.err
		}
	}
	return nil
}

// Exec runs the experiment once with o's observers attached, writes its
// report to w (nil skips the report) and returns its series. It returns
// ErrUnknown or the ErrNo* of a capability o asks for and the experiment
// lacks before anything runs. Runs are deterministic: equal IDs and equal
// plans always write equal bytes, record equal events and accumulate
// equal profiles.
func (e Experiment) Exec(w io.Writer, o Observe) ([]plot.Series, error) {
	if err := e.require(o.needs()); err != nil {
		return nil, err
	}
	return e.run(w, o)
}

// Run executes a plain run and writes the report.
func (e Experiment) Run(w io.Writer) error {
	_, err := e.Exec(w, Observe{})
	return err
}

// reporter is anything that can write its report.
type reporter interface{ Report(w io.Writer) error }

// entry builds a registry Experiment from a driver and an optional series
// projection; a non-nil projection adds CapSeries to caps.
func entry[T reporter](id string, caps Caps, drive func(Observe) (T, error), series func(T) []plot.Series) Experiment {
	if series != nil {
		caps |= CapSeries
	}
	return Experiment{ID: id, Caps: caps, run: func(w io.Writer, o Observe) ([]plot.Series, error) {
		r, err := drive(o)
		if err != nil {
			return nil, err
		}
		if w != nil {
			if err := r.Report(w); err != nil {
				return nil, err
			}
		}
		if series == nil {
			return nil, nil
		}
		return series(r), nil
	}}
}

// static builds an entry for a driver with no simulation to observe.
func static[T reporter](id string, build func() (T, error), series func(T) []plot.Series) Experiment {
	return entry(id, 0, func(Observe) (T, error) { return build() }, series)
}

// infallible adapts a driver that cannot fail to the (T, error) shape.
func infallible[T reporter](build func() T) func() (T, error) {
	return func() (T, error) { return build(), nil }
}

// observed is the capability set of the transient drivers that take a
// fault plan; fig8 and the fleet and scenario extensions lack CapChaos.
const observed = CapTrace | CapChaos | CapProfile

// registryList returns every experiment in declaration order.
func registryList() []Experiment {
	return []Experiment{
		static("fig2", infallible(Fig2), func(r *Fig2Result) []plot.Series { return r.Series }),
		static("fig3", infallible(Fig3), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		static("fig4", infallible(Fig4), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		static("fig5", infallible(Fig5), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		static("fig6a", infallible(Fig6a), func(r *Fig6aResult) []plot.Series { return r.Series }),
		static("fig6b", Fig6b, func(r *Fig6bResult) []plot.Series { return r.Series }),
		static("fig7a", infallible(Fig7a), func(r *Fig7aResult) []plot.Series { return r.Series }),
		static("fig7b", Fig7b, func(r *Fig7bResult) []plot.Series { return r.Series }),
		entry("fig8", CapTrace|CapProfile, fig8, func(r *Fig8Result) []plot.Series { return r.Series }),
		static("fig9a", Fig9a, func(r *Fig9aResult) []plot.Series { return r.Series }),
		entry("fig9b", observed, fig9b, func(r *Fig9bResult) []plot.Series { return r.Series }),
		static("fig11a", infallible(Fig11a), func(r *Fig11aResult) []plot.Series { return r.Series }),
		entry("fig11b", observed, fig11b, func(r *Fig11bResult) []plot.Series { return r.Series }),
		// Summary-only experiments (nil projection => ErrNoSeries on export).
		static[*HeadlineResult]("headline", infallible(Headline), nil),

		// Extensions beyond the paper's evaluation (DESIGN.md Sec. 5).
		// Summary-only except ext-scenario: their results are tables of
		// scalars, not sampled curves.
		static[*ExtCornersResult]("ext-corners", ExtCorners, nil),
		static[*ExtDomainsResult]("ext-domains", ExtDomains, nil),
		static[*ExtWeatherResult]("ext-weather", ExtWeather, nil),
		entry[*ExtIntermittentResult]("ext-intermittent", observed, extIntermittent, nil),
		static[*ExtFederationResult]("ext-federation", ExtFederation, nil),
		static[*ExtShadingResult]("ext-shading", ExtShading, nil),
		static[*ExtDutyCycleResult]("ext-dutycycle", ExtDutyCycle, nil),
		static[*ExtTemperatureResult]("ext-temperature", ExtTemperature, nil),
		entry[*fleet.Report]("ext-fleet", CapTrace|CapProfile, extFleet, nil),
		entry("ext-scenario", CapTrace|CapProfile, extScenario,
			func(r *scenario.Report) []plot.Series { return r.Series() }),
	}
}

// Registry returns the experiment table keyed by ID (fig2, fig3, ...).
func Registry() map[string]Experiment {
	list := registryList()
	m := make(map[string]Experiment, len(list))
	for _, e := range list {
		m[e.ID] = e
	}
	return m
}

// lookup returns the registry entry for id; an unknown id yields an entry
// whose Exec returns ErrUnknown naming it.
func lookup(id string) Experiment {
	if e, ok := Registry()[id]; ok {
		return e
	}
	return Experiment{ID: id}
}

// IDs returns, in sorted order, the experiments that have every
// capability in c; IDs(0) is the whole registry.
func IDs(c Caps) []string {
	var ids []string
	for _, e := range registryList() {
		if e.Caps&c == c {
			ids = append(ids, e.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// Names returns the registry keys in a stable order.
func Names() []string { return IDs(0) }

// renderChart writes an ASCII chart, tolerating empty data.
func renderChart(w io.Writer, c plot.Chart, series ...plot.Series) error {
	if err := c.Render(w, series...); err != nil {
		fmt.Fprintf(w, "(chart unavailable: %v)\n", err)
	}
	return nil
}
