package fault

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzParsePlan checks the decoder behind the X-Fault-Plan header and
// hemsim -faults files: it never panics, every plan it accepts passes
// Validate with a random count within MaxWindows and resolves within the
// bound or with ErrBadPlan, and an accepted plan survives json.Marshal →
// ParsePlan unchanged.
func FuzzParsePlan(f *testing.F) {
	f.Add(``)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`{"seed":7,"brownouts":[{"at_s":0.05,"duration_s":0.02}],` +
		`"random_brownouts":{"count":2,"mean_duration_s":0.01,"depth":0.1},` +
		`"nvm":{"fail_every_n":2,"restore_bitrot_prob":0.2}}`)
	f.Add(`{"serve":{"error_prob":1,"error_status":503}}`)
	f.Add(`{"serve":{"latency_ms":5,"latency_jitter_ms":2,"render_error_prob":0.5,"gate_hold_ms":10}}`)
	f.Add(`{"brownouts":[{"at_s":0,"duration_s":1,"every_s":2,"depth":0.5}]}`)
	f.Add(`{"brownouts":[]}`)
	f.Add(`{"nvm":{}}`)
	f.Add(`{"brownouts":[{"at_s":1,"duration_s":2,"every_s":1}]}`)
	f.Add(`{"seed":-9223372036854775808,"nvm":{"torn_write_prob":1}}`)
	f.Add(`{"bogus":1}`)
	f.Add(`{"seed":1}{"seed":2}`)
	f.Add(`{"seed":1,"random_brownouts":{"count":1000000000000,"mean_duration_s":0.001}}`)
	f.Add(`{"seed":1,"brownouts":[{"at_s":0,"duration_s":1e-12,"every_s":1e-12}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		p, err := ParsePlan([]byte(data))
		if err != nil {
			return // rejection is always fine; the properties bind acceptances
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\ninput: %q", err, data)
		}
		if p.Random != nil && p.Random.Count > MaxWindows {
			t.Fatalf("accepted random count %d > MaxWindows\ninput: %q", p.Random.Count, data)
		}
		// Resolving over a unit horizon either refuses the plan or stays
		// within the window bound.
		if b, err := New(p, "fuzz").Brownouts(1); err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("Brownouts error %v does not wrap ErrBadPlan\ninput: %q", err, data)
			}
		} else if n := len(b.windows); n > MaxWindows {
			t.Fatalf("resolved %d windows > MaxWindows\ninput: %q", n, data)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal accepted plan: %v\ninput: %q", err, data)
		}
		back, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("marshalled plan rejected: %v\nenc: %s\ninput: %q", err, enc, data)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan\nin:  %+v\nout: %+v\nenc: %s", p, back, enc)
		}
	})
}
