package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/expt"
	"repro/internal/pv"
	"repro/internal/runner"
)

// loadGoldens reads every registry experiment's golden report, read only.
func loadGoldens() (map[string][]byte, error) {
	goldens := make(map[string][]byte)
	for _, id := range expt.Names() {
		data, err := os.ReadFile(filepath.Join("internal", "expt", "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden report (run from the repository root): %w", err)
		}
		goldens[id] = data
	}
	return goldens, nil
}

// figuresPass runs every registry experiment once on the runner pool, in
// registry order with workers = nproc, as `hemsim all` does, and checks
// every report against its golden.
func figuresPass(b *bench, goldens map[string][]byte) ([]runner.Result, time.Duration) {
	table := expt.Registry()
	pass := b.rec.open("figures.pass", 0)
	jobs := make([]runner.Job, 0, len(table))
	for _, id := range expt.Names() {
		render := table[id].Run
		jobs = append(jobs, runner.Job{ID: id, Run: func(w io.Writer) error {
			sp := b.rec.open("expt."+id, pass.ID())
			defer sp.done()
			return render(w)
		}})
	}
	t0 := time.Now()
	results := runner.Run(jobs, b.workers)
	wall := time.Since(t0)
	pass.done()
	for _, r := range results {
		b.attempt()
		switch {
		case r.Err != nil:
			b.fail("%s: %v", r.ID, r.Err)
		case !bytes.Equal(r.Output, goldens[r.ID]):
			b.fail("%s: report differs from its golden", r.ID)
		}
	}
	return results, wall
}

// runFigures is the paper-reproduction workload.
func runFigures(b *bench) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	// Set-up is the one cold pass, which fills the process-wide pv solve
	// cache. pv has no cache reset, so it cannot be repeated in-process.
	runtime.GC()
	_, setup := figuresPass(b, goldens)
	var walls, slowest []time.Duration
	b.window(func() {
		results, wall := figuresPass(b, goldens)
		walls = append(walls, wall)
		var top time.Duration
		for _, r := range results {
			top = max(top, r.Elapsed)
		}
		slowest = append(slowest, top)
	})
	n := len(walls)
	p50 := median(msAll(walls))
	b.metrics.set("items_per_s", float64(len(goldens))/(p50/1e3), n)
	b.metrics.set("p50_ms", p50, n)
	b.metrics.set("heavy_p50_ms", median(msAll(slowest)), n)
	b.metrics.set("setup_s", setup.Seconds(), 1)
	return nil
}

// figuresLayers is the figures section of the layer table: one traced
// pass, after the untraced warm-up pass that fills the process-wide pv
// cache, as set-up does in the figures workload.
func figuresLayers(b *bench, goldens map[string][]byte) error {
	var untraced time.Duration
	b.untraced(func() {
		figuresPass(b, goldens)
		if b.workload == "figures" {
			_, untraced = figuresPass(b, goldens)
		}
	})
	hits0, misses0 := pv.CacheStats()
	results, wall := figuresPass(b, goldens)
	b.overhead(untraced, wall)
	hits, misses := pv.CacheStats()
	hits, misses = hits-hits0, misses-misses0
	if hits+misses == 0 {
		return fmt.Errorf("figures pass made no pv cache lookups")
	}
	b.metrics.set("pv.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	var busy, maxWait time.Duration
	for _, r := range results {
		b.metrics.set("expt."+r.ID+"_ms", ms(r.Elapsed), 1)
		busy += r.Elapsed
		maxWait = max(maxWait, r.Queued)
	}
	b.metrics.set("runner.parallel_efficiency", float64(busy)/(float64(wall)*float64(b.workers)), len(results))
	b.metrics.set("runner.max_queue_wait_ms", ms(maxWait), len(results))
	return nil
}
