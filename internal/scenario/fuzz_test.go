package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseScenario fuzzes the JSON front door with the property every
// accepted spec must satisfy: it validates, its canonical String() reparses
// to the identical spec, and the canonical form is a fixed point.
func FuzzParseScenario(f *testing.F) {
	f.Add(``)
	f.Add(`{}`)
	f.Add(demoSpec)
	f.Add(`{"source":{"kind":"clearsky","peak":0.8}}`)
	f.Add(`{"source":{"kind":"cloudy","dwell_clear_s":3,"dwell_cloudy_s":0.5}}`)
	f.Add(`{"source":{"kind":"indoor","start_stage":1,"jitter":0.1}}`)
	f.Add(`{"source":{"kind":"trace","path":"x.json"}}`)
	f.Add(`{"workload":{"arrivals":{"process":"weibull","shape":0.7,"rate_hz":20}}}`)
	f.Add(`{"workload":{"arrivals":{"process":"none"}}}`)
	f.Add(`{"geometry":{"nodes":16,"horizon_s":4,"step_s":0.001}}`)
	f.Add(`{"version":1,"seed":-1}`)
	f.Add(`{"source":{"kind":"kinetic","jitter":0.999}}`)
	f.Add(`{"geometry":{"horizon_s":1e308}}`)
	f.Add(`{"source":{"kind":"bench","level":0.5},"geometry":{"nodes":1,"horizon_s":1e11,"step_s":1e-4}}`)
	f.Add(`[1,2,3]`)
	f.Add("{\"name\":\"\u0000\"}")
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := ParseScenario([]byte(data))
		if err != nil {
			return // rejection is always fine; the property binds acceptances
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", err, data)
		}
		if n := spec.Geometry.HorizonS/spec.Geometry.StepS + 1; n > MaxSourceSamples {
			t.Fatalf("accepted spec renders %g source samples, above %d\ninput: %q", n, MaxSourceSamples, data)
		}
		canon := spec.String()
		back, err := ParseScenario([]byte(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanon: %q\ninput: %q", err, canon, data)
		}
		if back != spec {
			t.Fatalf("canonical round trip changed the spec\nin:  %+v\nout: %+v", spec, back)
		}
		if back.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, back.String())
		}
	})
}

// FuzzReadTrace fuzzes the replay trace-file decoder: no panic, and an
// accepted file's trace writes back to a file that reads to the same step
// and samples bit for bit and re-encodes to the same bytes.
func FuzzReadTrace(f *testing.F) {
	f.Add(``)
	f.Add(`nope`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0.1,"samples":[1,0.5,0]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":5e-324,"samples":[-0,0.1,1e308]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0.1,"samples":[1],"extra":1}`)
	f.Add(`{"format":"hem-light-trace","version":2,"step_s":0.1,"samples":[1]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0,"samples":[1]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0.1,"samples":[1,-2]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0.1,"samples":[]}`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":0.1,"samples":[1]} trailing`)
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatalf("accepted trace does not encode: %v\ninput: %q", err, data)
		}
		back, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoded form rejected: %v\nencoded: %q", err, first.Bytes())
		}
		if math.Float64bits(back.Step) != math.Float64bits(tr.Step) || len(back.Samples) != len(tr.Samples) {
			t.Fatalf("round trip moved step %v -> %v or length %d -> %d", tr.Step, back.Step, len(tr.Samples), len(back.Samples))
		}
		for i, v := range tr.Samples {
			if math.Float64bits(back.Samples[i]) != math.Float64bits(v) {
				t.Fatalf("sample %d moved %v -> %v", i, v, back.Samples[i])
			}
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, back); err != nil {
			t.Fatalf("re-read trace does not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not canonical:\nfirst:  %q\nsecond: %q", first.Bytes(), second.Bytes())
		}
	})
}
