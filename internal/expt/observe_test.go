package expt

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/trace"
)

// TestObserverInvariance runs every registry experiment once with every
// observer it supports attached and checks that none of them changes what
// it observes: the report equals the plain golden, the events equal the
// golden trace (or a tracer-only run), the pprof bytes equal a
// profile-only run and the series equal a plain run's. Every capability an
// experiment lacks must be refused with its ErrNo* before anything runs.
func TestObserverInvariance(t *testing.T) {
	// The summary-only allowlist is pinned here: growing it requires
	// touching this list consciously rather than by forgetting an export.
	wantNoSeries := []string{
		"ext-corners", "ext-domains", "ext-dutycycle", "ext-federation",
		"ext-fleet", "ext-intermittent", "ext-shading", "ext-temperature",
		"ext-weather", "headline",
	}
	var noSeries []string
	for _, id := range IDs(0) {
		if Registry()[id].Caps&CapSeries == 0 {
			noSeries = append(noSeries, id)
		}
	}
	if !reflect.DeepEqual(noSeries, wantNoSeries) {
		t.Errorf("no-series allowlist = %v, want %v", noSeries, wantNoSeries)
	}
	if got := IDs(0); !reflect.DeepEqual(got, Names()) || len(got) != len(Registry()) {
		t.Errorf("IDs(0) = %v, want the whole registry %v", got, Names())
	}

	for _, id := range IDs(0) {
		e := Registry()[id]
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var o Observe
			rec := trace.NewRecorder()
			if e.Caps&CapTrace != 0 {
				o.Tracer = rec
			}
			if e.Caps&CapProfile != 0 {
				o.Profile = prof.New()
			}
			var report bytes.Buffer
			series, err := e.Exec(&report, o)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report.Bytes(), want) {
				t.Errorf("observed report drifted from %s:\n%s", goldenPath(id), firstDiff(want, report.Bytes()))
			}
			checkSeries(t, e, o, series)
			if o.Tracer != nil {
				checkEvents(t, id, rec.Events())
			}
			if o.Profile != nil {
				checkProfile(t, id, o.Profile)
			}
			checkRefusals(t, e)
		})
	}

	for _, o := range []Observe{{}, {Tracer: trace.NewRecorder()}, {Plan: &fault.Plan{}}, {Profile: prof.New()}} {
		if _, err := lookup("nope").Exec(nil, o); !errors.Is(err, ErrUnknown) {
			t.Errorf("Exec(nope, %+v) error = %v, want ErrUnknown", o, err)
		}
	}
	if _, err := (Experiment{}).Exec(nil, Observe{}); !errors.Is(err, ErrUnknown) {
		t.Errorf("zero Experiment Exec error = %v, want ErrUnknown", err)
	}
	renders := map[string]func(string) ([]byte, error){
		"Render":        Render,
		"RenderCSV":     RenderCSV,
		"RenderProfile": RenderProfile,
		"RenderTrace":   func(id string) ([]byte, error) { return RenderTrace(id, trace.FormatJSONL) },
	}
	for name, render := range renders {
		if _, err := render("nope"); !errors.Is(err, ErrUnknown) {
			t.Errorf("%s(nope) error = %v, want ErrUnknown", name, err)
		}
	}
}

// checkSeries: a series-capable experiment returns the plain run's
// non-empty series; a summary-only one returns none and refuses CSV.
func checkSeries(t *testing.T, e Experiment, o Observe, series []plot.Series) {
	t.Helper()
	if e.Caps&CapSeries == 0 {
		if series != nil {
			t.Errorf("summary-only experiment returned %d series", len(series))
		}
		if _, err := RenderCSV(e.ID); !errors.Is(err, ErrNoSeries) {
			t.Errorf("RenderCSV error = %v, want ErrNoSeries", err)
		}
		return
	}
	if len(series) == 0 {
		t.Error("no series despite CapSeries")
	}
	if o == (Observe{}) {
		return // the observed run was the plain run
	}
	plain, err := e.Exec(nil, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, plain) {
		t.Error("observed series differ from the plain run's")
	}
}

// checkEvents compares an observed run's events against the golden trace
// where one is pinned, else against a tracer-only run.
func checkEvents(t *testing.T, id string, events []trace.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Error("traced run recorded no events")
	}
	if want, err := os.ReadFile(goldenTracePath(id)); err == nil {
		var got bytes.Buffer
		if err := trace.Write(&got, trace.FormatJSONL, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("observed events drifted from %s:\n%s", goldenTracePath(id), firstDiff(want, got.Bytes()))
		}
		return
	}
	alone, err := traceEvents(id, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, alone) {
		t.Error("observed events differ from a tracer-only run")
	}
}

// checkProfile compares an observed run's pprof bytes against a
// profile-only run's.
func checkProfile(t *testing.T, id string, p *prof.Profile) {
	t.Helper()
	var got bytes.Buffer
	if err := prof.WritePprof(&got, p); err != nil {
		t.Fatal(err)
	}
	alone, err := RenderProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), alone) {
		t.Error("observed pprof bytes differ from RenderProfile")
	}
}

// checkRefusals asks for each capability the experiment lacks and expects
// the matching ErrNo* before anything runs: no report byte is written and
// an attached profile stays empty.
func checkRefusals(t *testing.T, e Experiment) {
	t.Helper()
	asks := []struct {
		c   Caps
		o   Observe
		err error
	}{
		{CapTrace, Observe{Tracer: trace.NewRecorder()}, ErrNoTrace},
		{CapChaos, Observe{Plan: &fault.Plan{}}, ErrNoChaos},
		{CapProfile, Observe{Profile: prof.New()}, ErrNoProfile},
	}
	for _, a := range asks {
		if e.Caps&a.c != 0 {
			continue
		}
		p := prof.New()
		if a.o.Profile == nil && e.Caps&CapProfile != 0 {
			a.o.Profile = p // a supported observer rides along and must stay untouched
		}
		var w bytes.Buffer
		if _, err := e.Exec(&w, a.o); !errors.Is(err, a.err) {
			t.Errorf("Exec(%+v) error = %v, want %v", a.o, err, a.err)
		}
		if w.Len() != 0 || p.Len() != 0 {
			t.Errorf("refused Exec(%+v) ran anyway", a.o)
		}
	}
	if e.Caps&CapTrace == 0 {
		if _, err := RenderTrace(e.ID, trace.FormatJSONL); !errors.Is(err, ErrNoTrace) {
			t.Errorf("RenderTrace error = %v, want ErrNoTrace", err)
		}
	}
	if e.Caps&CapProfile == 0 {
		if _, err := RenderProfile(e.ID); !errors.Is(err, ErrNoProfile) {
			t.Errorf("RenderProfile error = %v, want ErrNoProfile", err)
		}
	}
}
