package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around the
// layer's public function. Times are host time since the recorder started.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: every method is a no-op.
type recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// add records a finished span and returns its ID (0 when untraced).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// open reserves a span that starts now; close it with done. Children may
// name its ID as their parent before it is closed.
func (r *recorder) open(name string, parent int) *openSpan {
	if r == nil {
		return nil
	}
	id := r.add(name, parent, time.Now(), time.Now())
	return &openSpan{r: r, id: id}
}

type openSpan struct {
	r  *recorder
	id int
}

// ID is the span's ID, 0 for the untraced no-op span.
func (s *openSpan) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *openSpan) done() {
	if s == nil {
		return
	}
	end := time.Since(s.r.t0)
	s.r.mu.Lock()
	s.r.spans[s.id-1].End = end
	s.r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the spans, one JSON object per line, to path.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may overlap each other (jobs on a worker pool) and are clipped
// to the parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi] covered by the union of the spans.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	started := false
	var start time.Duration
	for _, v := range ivs {
		switch {
		case !started:
			start, end, started = v.a, v.b, true
		case v.a > end:
			total += end - start
			start, end = v.a, v.b
		case v.b > end:
			end = v.b
		}
	}
	if started {
		total += end - start
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerTable aggregates spans by name, ordered by self time (largest
// first, then name).
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// printLayerTable writes the layer table in human-readable form.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-36s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %7d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}
