package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"repro/internal/expt"
)

// metricDef is one metric the driver can print. Every timing is host
// (wall-clock) time on the machine running the benchmark; simulated
// quantities never appear here — they are the correctness gate.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Moves names the end-to-end metric, and the workload, that a change
	// to this layer should move. Empty for end-to-end metrics.
	Moves string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; what an "item", the "main operation" and the "heavy
// operation" are depends on the workload (see README.md).
var endToEnd = []metricDef{
	{Name: "items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heavy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// Short forms of the Moves column.
const (
	movesFigures   = "items_per_s, p50_ms on figures"
	movesShading   = "heavy_p50_ms on figures"
	movesLit       = "items_per_s, p50_ms on fleet-lit"
	movesLitHeavy  = "heavy_p50_ms, items_per_s on fleet-lit"
	movesDark      = "p50_ms, items_per_s on fleet-dark"
	movesProfiled  = "heavy_p50_ms, items_per_s on fleet-dark"
	movesServe     = "items_per_s, p50_ms on serve"
	movesServeCold = "heavy_p50_ms, items_per_s on serve"
)

// perLayer are the metrics of a traced run: the per-module layer table.
// The expt.<id>_ms rows are generated from the registry, so a new
// experiment must also be added to BENCHMARK.json (the tests check it).
func perLayer() []metricDef {
	var defs []metricDef
	for _, id := range expt.Names() {
		moves := movesFigures
		if id == "ext-shading" {
			moves = movesShading + "; " + movesFigures
		}
		defs = append(defs, metricDef{Name: "expt." + id + "_ms", Unit: "ms", Better: "lower", Moves: moves})
	}
	return append(defs, []metricDef{
		{"runner.parallel_efficiency", "ratio", "higher", movesFigures},
		{"runner.max_queue_wait_ms", "ms", "lower", movesFigures},
		{"pv.array_global_mpp_ms", "ms", "lower", movesShading},
		{"pv.array_local_mpps_ms", "ms", "lower", movesShading},
		{"pv.cache_hit_ratio", "ratio", "higher", movesFigures},
		{"pv.cell_current_ref_ns", "ns", "lower", movesLit},
		{"pv.cell_current_warm_ns", "ns", "lower", movesLit},
		{"pv.solve_batch_ns", "ns", "lower", movesLit},
		{"cpu.max_frequency_ns", "ns", "lower", movesLit},
		{"cpu.voltage_for_frequency_warm_ns", "ns", "lower", movesLit},
		{"circuit.step_ns", "ns", "lower", movesLit},
		{"circuit.batch_lane_step_ns", "ns", "lower", movesLit},
		{"circuit.ffwd_skip_ratio", "ratio", "higher", movesDark},
		{"circuit.ffwd_skip_ratio_ledger", "ratio", "higher", movesProfiled},
		{"fleet.epoch_ms_p50", "ms", "lower", movesLit},
		{"fleet.epoch_ms_max", "ms", "lower", movesLitHeavy},
		{"fleet.parallel_speedup", "ratio", "higher", movesLit},
		{"fleet.dark_epoch_ms_p50", "ms", "lower", movesDark},
		{"prof.ledger_slowdown", "ratio", "lower", movesProfiled},
		{"prof.write_pprof_ms", "ms", "lower", movesProfiled},
		{"serve.experiment_get_p50_ms", "ms", "lower", movesServe},
		{"serve.cached_p99_ms", "ms", "lower", movesServe},
		{"serve.fleet_get_p50_ms", "ms", "lower", movesServeCold},
		{"serve.cold_p90_ms", "ms", "lower", movesServeCold},
		{"serve.pv_solve_p50_ms", "ms", "lower", movesServe},
		{"serve.mppt_plan_p50_ms", "ms", "lower", movesServe},
		{"serve.report_cache_hit_ratio", "ratio", "higher", movesServe},
		{"serve.gate_waited", "count", "lower", movesServeCold},
		{"serve.shed_503", "count", "lower", movesServe},
		{"bench.trace_overhead_ratio", "ratio", "lower", "none: traced wall over untraced wall of the chosen workload"},
	}...)
}

// nameRE is the character set every metric name is restricted to.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet collects one run's metric values, refusing names outside its
// table so the driver can never print a metric BENCHMARK.json lacks.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]float64
	counts map[string]int // sample counts behind a value, for the printout
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef), values: make(map[string]float64), counts: make(map[string]int)}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

// set records a value; n > 0 is the number of samples behind it.
func (m *metricSet) set(name string, v float64, n int) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not in the table", name))
	}
	m.values[name] = v
	if n > 0 {
		m.counts[name] = n
	}
}

// complete reports the metrics that were never set or are not finite.
func (m *metricSet) complete() error {
	var bad []string
	for _, name := range m.order {
		v, ok := m.values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics missing or not finite: %v", bad)
	}
	return nil
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) json() map[string]metricValue {
	out := make(map[string]metricValue, len(m.values))
	for name, v := range m.values {
		out[name] = metricValue{Value: v, Unit: m.defs[name].Unit}
	}
	return out
}
