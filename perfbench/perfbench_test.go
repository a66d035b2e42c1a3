package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestSummarizeFixedInputs(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	got := summarize(xs)
	want := dist{N: 10, P50: 5.5, P90: 9.1, P99: 9.91, Max: 10}
	const eps = 1e-12
	if got.N != want.N || math.Abs(got.P50-want.P50) > eps || math.Abs(got.P90-want.P90) > eps ||
		math.Abs(got.P99-want.P99) > eps || got.Max != want.Max {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	if xs[0] != 7 {
		t.Fatal("summarize reordered its input")
	}
	if one := summarize([]float64{3}); one != (dist{N: 1, P50: 3, P90: 3, P99: 3, Max: 3}) {
		t.Fatalf("one sample: %+v", one)
	}
	if none := summarize(nil); none.N != 0 {
		t.Fatalf("no samples: %+v", none)
	}
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
}

// A hand-built tree: root [0,100] has children A [10,40] and B [30,60],
// which overlap, and C [90,120], which overruns the root; A has one child
// [15,20].
func TestSelfTimes(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "kid", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "kid", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Name: "late", Start: at(90), End: at(120)},
		{ID: 5, Parent: 2, Name: "leaf", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: at(40), 2: at(25), 3: at(30), 4: at(30), 5: at(5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "kid" || rows[0].Count != 2 || rows[0].Total != at(60) || rows[0].Self != at(55) {
		t.Fatalf("first layer row = %+v, want kid ×2, 60ms total, 55ms self", rows[0])
	}
}

// Every metric the driver can print is named in BENCHMARK.json with the
// same unit and direction, and no name leaves [A-Za-z0-9_.-].
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(section string, driver, declared []metricDef) {
		if len(driver) != len(declared) {
			t.Errorf("%s: driver has %d metrics, BENCHMARK.json %d", section, len(driver), len(declared))
		}
		byName := make(map[string]metricDef)
		for _, d := range declared {
			byName[d.Name] = d
		}
		seen := make(map[string]bool)
		for _, d := range driver {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", section, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: %q listed twice", section, d.Name)
			}
			seen[d.Name] = true
			j, ok := byName[d.Name]
			if !ok {
				t.Errorf("%s: %q is not in BENCHMARK.json", section, d.Name)
				continue
			}
			if j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s: %q is %s/%s in the driver, %s/%s in BENCHMARK.json", section, d.Name, d.Unit, d.Better, j.Unit, j.Better)
			}
		}
	}
	compare("end_to_end", endToEnd, doc.EndToEnd)
	compare("per_layer", perLayer(), doc.PerLayer)
	for _, d := range perLayer() {
		if d.Moves == "" {
			t.Errorf("per-layer metric %q does not say which end-to-end metric it moves", d.Name)
		}
	}
}

func TestMetricSetRefusesUnknownNames(t *testing.T) {
	m := newMetricSet(endToEnd)
	defer func() {
		if recover() == nil {
			t.Fatal("set accepted a metric outside the table")
		}
	}()
	m.set("items_per_s", 1, 1)
	if err := m.complete(); err == nil {
		t.Fatal("complete accepted a partial set")
	}
	m.set("not_a_metric", 1, 1)
}

// The recorder is shared by worker-pool jobs and HTTP clients.
func TestRecorderConcurrentUse(t *testing.T) {
	r := newRecorder("test")
	root := r.open("root", 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.open("kid", root.ID())
				r.add("leaf", sp.ID(), time.Now(), time.Now())
				sp.done()
			}
		}()
	}
	wg.Wait()
	root.done()
	spans := r.snapshot()
	if len(spans) != 1+4*100*2 {
		t.Fatalf("%d spans, want %d", len(spans), 1+4*100*2)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
}
