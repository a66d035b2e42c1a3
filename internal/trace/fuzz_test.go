package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL fuzzes the hemtrace input decoder with the property every
// accepted trace must satisfy: no panic, every event validates, and the
// re-encoded JSONL reads back to events whose encoding is the same bytes
// (one WriteJSONL pass reaches the canonical form).
func FuzzReadJSONL(f *testing.F) {
	f.Add(``)
	f.Add(`{"seq":0,"clock":"sim","t":0.001,"kind":"sched.mode","ph":"i","track":"proposed","args":{"f_hz":1.84e8,"mode":"slow"}}`)
	f.Add(`{"seq":1,"clock":"sim","t":0.002,"kind":"mppt.window","ph":"B"}` + "\n" +
		`{"seq":2,"clock":"sim","t":0.004,"kind":"mppt.window","ph":"E","args":{"pin_w":0.0081}}`)
	f.Add(`{"seq":3,"clock":"wall","t":0,"kind":"runner.job","ph":"C","args":{"worker":2,"ok":true,"n":null,"xs":[1,"a",{"b":false}]}}`)
	f.Add(`{"seq":0,"clock":"sim","t":-0,"kind":"k< ","ph":"i","args":{"":"\xff"}}`)
	f.Add(`{"seq":0,"clock":"lunar","t":0,"kind":"k","ph":"i"}`)
	f.Add(`{"seq":0,"clock":"sim","t":1e400,"kind":"k","ph":"i"}`)
	f.Add(`{"seq":18446744073709551615,"clock":"sim","t":5e-324,"kind":"k","ph":"i"} {"clock":"sim","kind":"k","ph":"i"}`)
	f.Add(`nope`)
	f.Fuzz(func(t *testing.T, data string) {
		events, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return // rejection is always fine; the property binds acceptances
		}
		for i, ev := range events {
			if err := Validate(ev); err != nil {
				t.Fatalf("accepted event %d fails Validate: %v\ninput: %q", i, err, data)
			}
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, events); err != nil {
			t.Fatalf("accepted events do not encode: %v\ninput: %q", err, data)
		}
		back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoded form rejected: %v\nencoded: %q", err, first.Bytes())
		}
		if len(back) != len(events) {
			t.Fatalf("round trip kept %d of %d events\nencoded: %q", len(back), len(events), first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, back); err != nil {
			t.Fatalf("re-read events do not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not canonical:\nfirst:  %q\nsecond: %q", first.Bytes(), second.Bytes())
		}
	})
}
