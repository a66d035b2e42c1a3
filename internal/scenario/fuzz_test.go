package scenario

import (
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
