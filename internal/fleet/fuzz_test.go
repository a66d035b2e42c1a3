package fleet

import "testing"

// FuzzParseSpec fuzzes the URL-path and CLI spec decoder: it never panics,
// and every accepted spec's canonical String() reparses to the identical
// spec and is a fixed point, so canonical strings are sound cache keys.
func FuzzParseSpec(f *testing.F) {
	// The specs the CI smoke steps and the hemserved smoke drive.
	f.Add("n=200,horizon=0.02")
	f.Add("n=1,horizon=1e13")
	f.Add("n=1,step=1e-300")
	f.Add("n=50,horizon=0.01")
	f.Add("n=24,horizon=0.01")
	f.Add("n=4,seed=1,horizon=0.004")
	f.Add("n=100,seed=11,horizon=0.3,epoch=0.01,step=2e-4,dark=0.9")
	f.Add("")
	f.Add("1000")
	f.Add(" n = 3 , seed=-7 ,, ")
	f.Add("dark=-0")
	f.Add("horizon=NaN")
	f.Add("n=1,horizon=0x1p-3")
	f.Add("seed=9223372036854775807,step=5e-324")
	f.Add("n=1,horizon=0.0105,step=0.001") // a partial last step: rejected
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return // rejection is always fine; the property binds acceptances
		}
		canon := spec.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanon: %q\ninput: %q", err, canon, text)
		}
		if back != spec {
			t.Fatalf("canonical round trip changed the spec\nin:  %+v\nout: %+v", spec, back)
		}
		if back.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, back.String())
		}
	})
}
