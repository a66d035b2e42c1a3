package expt

import (
	"bytes"
	"errors"

	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Errors Exec and the renderers return before anything runs.
var (
	// ErrUnknown indicates an experiment ID absent from the registry.
	ErrUnknown = errors.New("expt: unknown experiment")
	// ErrNoSeries indicates an experiment that produces summary numbers
	// only (no CapSeries).
	ErrNoSeries = errors.New("expt: experiment has no plottable series")
	// ErrNoTrace indicates an experiment with no traced path (no
	// CapTrace): the analytic figures have no transient simulation.
	ErrNoTrace = errors.New("expt: experiment emits no trace events")
	// ErrNoChaos indicates an experiment with no chaos surface (no
	// CapChaos): it has no transient simulation for the fault layer to
	// attack.
	ErrNoChaos = errors.New("expt: experiment has no chaos runner")
	// ErrNoProfile indicates an experiment with no profiled path (no
	// CapProfile): the analytic figures have no step loop to account.
	ErrNoProfile = errors.New("expt: experiment emits no energy profile")
)

// The renderers below each run one experiment once and return one output
// format. They are the reusable core behind hemserved's caches and the
// golden tests: registry runs are deterministic functions of the
// calibrated models, so equal IDs always render equal bytes.

// Render returns the experiment's report bytes.
func Render(id string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := lookup(id).Exec(&buf, Observe{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RenderCSV returns the experiment's series as long-format CSV bytes.
func RenderCSV(id string) ([]byte, error) {
	e := lookup(id)
	if err := e.require(CapSeries); err != nil {
		return nil, err
	}
	series, err := e.Exec(nil, Observe{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := plot.WriteCSV(&buf, series...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RenderTrace returns the experiment's simulation events in the given
// trace export format (trace.FormatJSONL or trace.FormatChrome). Events
// carry simulated time and sequence numbers only.
func RenderTrace(id, format string) ([]byte, error) {
	rec := trace.NewRecorder()
	if _, err := lookup(id).Exec(nil, Observe{Tracer: rec}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, format, rec.Events()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RenderProfile returns the experiment's energy profile as gzipped pprof
// protobuf bytes (go tool pprof accepts them directly).
func RenderProfile(id string) ([]byte, error) {
	p := prof.New()
	if _, err := lookup(id).Exec(nil, Observe{Profile: p}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := prof.WritePprof(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
