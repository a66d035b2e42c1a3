// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload — figures, fleet-lit, fleet-dark or serve — against the
// repository's packages through their public functions, checks every output
// for correctness, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of the chosen
// workload, measured untraced for -seconds of host time. With -trace 1 the
// driver records spans around its calls into each layer and prints the
// per-module layer table instead (every section runs once, so the table is
// the same shape for every workload). Simulated statistics are never
// performance metrics here: they must come out byte-identical, and that is
// the correctness check. Run from the repository root:
//
//	bash perfbench/run.sh --workload fleet-lit --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// spansPath is where a traced run writes its spans, relative to the
// repository root it runs from.
const spansPath = ".bench_build/perfbench-spans.jsonl"

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int
	rec      *recorder // nil when untraced
	metrics  *metricSet

	attempted, failed int
	failures          []string
	peaks             []float64 // peak RSS (MB) of each measured operation
}

// attempt counts one operation; fail marks one attempted operation failed.
func (b *bench) attempt() { b.attempted++ }

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one operation and fails it when err is non-nil.
func (b *bench) op(err error) bool {
	b.attempt()
	if err != nil {
		b.fail("%v", err)
		return false
	}
	return true
}

// untraced runs fn with span recording off.
func (b *bench) untraced(fn func()) {
	rec := b.rec
	b.rec = nil
	defer func() { b.rec = rec }()
	fn()
}

// overhead records the chosen workload's traced wall over its untraced
// wall; untraced is zero in the other workloads' sections.
func (b *bench) overhead(untraced, traced time.Duration) {
	if untraced > 0 {
		b.metrics.set("bench.trace_overhead_ratio", float64(traced)/float64(untraced), 1)
	}
}

// window calls iter until b.seconds of host time have passed, at least
// once. Like testing.B, it collects garbage before each call, so one
// iteration's garbage is not collected on the next one's clock, and it
// records each call's peak RSS.
func (b *bench) window(iter func()) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < b.seconds; n++ {
		b.measurePeak(iter)
	}
}

// measurePeak runs fn from a collected heap returned to the OS and records
// the peak RSS it reached. Where the kernel cannot restart the high-water
// mark, the process's peak so far is recorded instead.
func (b *bench) measurePeak(fn func()) {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // restart VmHWM at the current RSS
	fn()
	b.peaks = append(b.peaks, peakRSSMB())
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*bench) error{
	"figures":    runFigures,
	"fleet-lit":  runFleetLit,
	"fleet-dark": runFleetDark,
	"serve":      runServe,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "figures, fleet-lit, fleet-dark or serve")
	seed := fs.Int64("seed", 1, "workload seed: fleet seeds and serve request parameters derive from it")
	seconds := fs.Float64("seconds", 12, "host seconds to measure")
	traced := fs.Int("trace", 0, "1: record spans and print the per-module layer table")
	recordDigests := fs.String("record-digests", "", "write fleet report digests for seeds 0..N-1 to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *recordDigests != "" {
		n, err := strconv.Atoi(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("-record-digests wants the seed count as its argument: %w", err)
		}
		return writeDigests(*recordDigests, n, runtime.NumCPU())
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want figures, fleet-lit, fleet-dark or serve)", *workload)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
	}
	if *traced == 1 {
		b.metrics = newMetricSet(perLayer())
		b.rec = newRecorder(fmt.Sprintf("%s/seed=%d", b.workload, b.seed))
		if err := runLayers(b); err != nil {
			return err
		}
		spans := b.rec.snapshot()
		if err := writeJSONL(spansPath, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		printLayerTable(os.Stdout, layerTable(spans))
	} else {
		b.metrics = newMetricSet(endToEnd)
		if err := runWorkload(b); err != nil {
			return err
		}
		b.metrics.set("peak_rss_mb", median(b.peaks), len(b.peaks))
	}
	return report(b)
}

// report prints every metric with its unit, then the result line, and
// turns a failed correctness check into a non-zero exit.
func report(b *bench) error {
	if err := b.metrics.complete(); err != nil {
		return err
	}
	for _, name := range b.metrics.order {
		d := b.metrics.defs[name]
		line := fmt.Sprintf("%-36s %14.6g %-6s", name, b.metrics.values[name], d.Unit)
		if n := b.metrics.counts[name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if d.Moves != "" {
			line += "  moves " + d.Moves
		}
		fmt.Println(line)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	correct := b.failed == 0 && b.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, b.metrics.json()})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d operations failed their correctness checks", b.failed, b.attempted)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
