package pv

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// randomCell draws a plausible calibration so the property tests cover the
// key space, not just the default module.
func randomCell(rng *rand.Rand) *Cell {
	return NewCell(
		WithPhotoCurrent(2e-3+rng.Float64()*30e-3),
		WithIdealityFactor(1.0+rng.Float64()),
		WithSeriesCells(1+rng.Intn(4)),
		WithSeriesResistance(rng.Float64()*4),
		WithShuntResistance(500+rng.Float64()*5000),
	)
}

// TestCachedSolvesMatchDirect is the memoization property test: for random
// calibrations and irradiances, the cached Voc/MPP/Curve values must equal
// a direct solve to (well within) solver tolerance — they are in fact the
// stored output of the same solver, so equality is exact.
func TestCachedSolvesMatchDirect(t *testing.T) {
	resetSolveCache()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		c := randomCell(rng)
		irr := 0.01 + rng.Float64()
		// Prime the cache, then compare the (now cached) second call
		// against the uncached solvers.
		c.OpenCircuitVoltage(irr)
		c.MPP(irr)
		if got, want := c.OpenCircuitVoltage(irr), c.openCircuitVoltageUncached(irr); math.Abs(got-want) > voltageSolveTolerance {
			t.Fatalf("trial %d: cached Voc %.9f, direct %.9f", trial, got, want)
		}
		gv, gp := c.MPP(irr)
		wv, wp := c.mppUncached(irr)
		if math.Abs(gv-wv) > voltageSolveTolerance || math.Abs(gp-wp) > 1e-12+1e-9*math.Abs(wp) {
			t.Fatalf("trial %d: cached MPP (%.9f V, %.6g W), direct (%.9f V, %.6g W)", trial, gv, gp, wv, wp)
		}
		got := c.Curve(irr, 16)
		want := c.curveUncached(irr, 16)
		if len(got) != len(want) {
			t.Fatalf("trial %d: curve lengths %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: curve point %d cached %+v, direct %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCacheSharedAcrossIdenticalCells checks that two cells with the same
// calibration share solved values: the second cell's first solve is a hit.
func TestCacheSharedAcrossIdenticalCells(t *testing.T) {
	resetSolveCache()
	a, b := NewCell(), NewCell()
	a.MPP(FullSun)
	hitsBefore, _ := CacheStats()
	b.MPP(FullSun)
	hitsAfter, _ := CacheStats()
	if hitsAfter <= hitsBefore {
		t.Errorf("identical cell did not hit the cache (hits %d -> %d)", hitsBefore, hitsAfter)
	}
	av, ap := a.MPP(FullSun)
	bv, bp := b.MPP(FullSun)
	if av != bv || ap != bp {
		t.Errorf("shared cache returned different values: (%g,%g) vs (%g,%g)", av, ap, bv, bp)
	}
}

// TestCacheDistinguishesCalibrations guards against key collisions: a cell
// with different parameters must not see another calibration's values.
func TestCacheDistinguishesCalibrations(t *testing.T) {
	resetSolveCache()
	a := NewCell()
	b := NewCell(WithPhotoCurrent(8e-3))
	av, ap := a.MPP(FullSun)
	bv, bp := b.MPP(FullSun)
	if av == bv && ap == bp {
		t.Error("different calibrations returned identical MPPs — key collision?")
	}
	if bp >= ap {
		t.Errorf("half the photocurrent should give less power: %g >= %g", bp, ap)
	}
}

// TestCacheConcurrentReaders hammers one cold cache from many goroutines;
// run under -race this is the thread-safety proof for shared Cells.
func TestCacheConcurrentReaders(t *testing.T) {
	resetSolveCache()
	c := NewCell()
	irrs := []float64{IndoorDim, IndoorBright, QuarterSun, HalfSun, BrightSun, FullSun}
	var wg sync.WaitGroup
	results := make([][2]float64, 16)
	for g := 0; g < len(results); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sumV, sumP float64
			for rep := 0; rep < 20; rep++ {
				for _, irr := range irrs {
					v, p := c.MPP(irr)
					sumV += v
					sumP += p
					_ = c.OpenCircuitVoltage(irr)
					_ = c.Curve(irr, 8)
				}
			}
			results[g] = [2]float64{sumV, sumP}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d accumulated %v, goroutine 0 %v", g, results[g], results[0])
		}
	}
}

// TestCurveCacheReturnsPrivateCopies ensures a caller mutating a returned
// curve cannot poison later lookups.
func TestCurveCacheReturnsPrivateCopies(t *testing.T) {
	resetSolveCache()
	c := NewCell()
	first := c.Curve(FullSun, 8)
	first[0].Power = math.Inf(1)
	second := c.Curve(FullSun, 8)
	if math.IsInf(second[0].Power, 1) {
		t.Error("mutating a returned curve leaked into the cache")
	}
}

func BenchmarkMPPCold(b *testing.B) {
	c := NewCell()
	for i := 0; i < b.N; i++ {
		resetSolveCache()
		c.MPP(FullSun)
	}
}

func BenchmarkMPPCached(b *testing.B) {
	resetSolveCache()
	c := NewCell()
	c.MPP(FullSun)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MPP(FullSun)
	}
}

// resetSolveCache empties the cache and counters (test hook).
func resetSolveCache() {
	solveCache.Range(func(k, _ any) bool { solveCache.Delete(k); return true })
	curveCache.Range(func(k, _ any) bool { curveCache.Delete(k); return true })
	atomic.StoreInt64(&cacheEntries, 0)
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheCoalesced.Store(0)
}
