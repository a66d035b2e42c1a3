package pv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// batchLanes builds a reproducible set of lanes spanning the interesting
// voltage range (below 0, around the MPP knee, beyond Voc) and irradiance
// range (dark through full sun).
func batchLanes(rng *rand.Rand, n int) (vs, irrs []float64) {
	vs = make([]float64, n)
	irrs = make([]float64, n)
	for k := range vs {
		vs[k] = -0.2 + 1.9*rng.Float64()
		irrs[k] = -0.1 + 1.2*rng.Float64() // includes non-positive lanes
	}
	return vs, irrs
}

// TestSolveBatchMatchesScalar is the direct differential: every lane of
// both batch modes must be bit-identical to the scalar stateless Current.
func TestSolveBatchMatchesScalar(t *testing.T) {
	c := NewCell()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 64, 1000} {
		vs, irrs := batchLanes(rng, n)
		sweep := c.SolveBatch(vs, irrs, nil, nil)
		laned := c.SolveBatch(vs, irrs, nil, NewBatchSolver(n))
		for k := range vs {
			want := c.Current(vs[k], irrs[k])
			if sweep[k] != want {
				t.Fatalf("n=%d lane %d sweep mode: got %x want %x", n, k, sweep[k], want)
			}
			if laned[k] != want {
				t.Fatalf("n=%d lane %d lane mode: got %x want %x", n, k, laned[k], want)
			}
		}
	}
}

// TestSolveBatchBroadcast pins the len(irrs)==1 broadcast semantics.
func TestSolveBatchBroadcast(t *testing.T) {
	c := NewCell()
	rng := rand.New(rand.NewSource(7))
	vs, _ := batchLanes(rng, 128)
	got := c.SolveBatch(vs, []float64{0.8}, nil, nil)
	for k, v := range vs {
		if want := c.Current(v, 0.8); got[k] != want {
			t.Fatalf("lane %d: got %x want %x", k, got[k], want)
		}
	}
}

// TestSolveBatchReusesOutput checks the out-slice contract: a caller's
// buffer is filled in place and returned resliced to the lane count.
func TestSolveBatchReusesOutput(t *testing.T) {
	c := NewCell()
	vs := []float64{0.2, 0.9, 1.3}
	buf := make([]float64, 8)
	got := c.SolveBatch(vs, []float64{1.0}, buf, nil)
	if len(got) != len(vs) || &got[0] != &buf[0] {
		t.Fatalf("output not the caller's buffer: len=%d", len(got))
	}
	for _, bad := range []func(){
		func() { c.SolveBatch(vs, []float64{0.5, 0.6}, nil, nil) },           // bad irr length
		func() { c.SolveBatch(vs, []float64{0.5}, make([]float64, 2), nil) }, // short out
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("length mismatch did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestSolveBatchPermutationInvariance (testing/quick): permuting the lanes
// permutes the results and changes nothing else — no lane's answer may
// depend on its neighbours, in either mode.
func TestSolveBatchPermutationInvariance(t *testing.T) {
	c := NewCell()
	check := func(seed int64, laneMode bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		vs, irrs := batchLanes(rng, n)
		perm := rng.Perm(n)
		pvs := make([]float64, n)
		pirrs := make([]float64, n)
		for k, p := range perm {
			pvs[k], pirrs[k] = vs[p], irrs[p]
		}
		var bs, pbs *BatchSolver
		if laneMode {
			bs, pbs = NewBatchSolver(n), NewBatchSolver(n)
		}
		base := c.SolveBatch(vs, irrs, nil, bs)
		permuted := c.SolveBatch(pvs, pirrs, nil, pbs)
		for k, p := range perm {
			if permuted[k] != base[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSolveBatchSplitInvariance (testing/quick): solving N lanes in one
// call is identical to solving any partition of them into consecutive
// sub-batches — the walking state may speed later lanes up but can never
// change their bytes.
func TestSolveBatchSplitInvariance(t *testing.T) {
	c := NewCell()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		vs, irrs := batchLanes(rng, n)
		whole := c.SolveBatch(vs, irrs, nil, nil)
		split := make([]float64, n)
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			c.SolveBatch(vs[lo:hi], irrs[lo:hi], split[lo:hi], nil)
			lo = hi
		}
		for k := range whole {
			if whole[k] != split[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzSolveBatchParity fuzzes lane geometry — base voltage and spacing,
// irradiance, lane count, lane order — and requires bit-identical results
// between SolveBatch (both modes, both lane orders) and per-lane scalar
// Current.
func FuzzSolveBatchParity(f *testing.F) {
	f.Add(0.9, 1e-6, 0.8, uint8(16), int64(1))
	f.Add(-0.3, 0.05, 0.03, uint8(7), int64(9))
	f.Add(1.45, -1e-4, 1.0, uint8(64), int64(3))
	f.Add(0.0, 0.0, 0.0, uint8(1), int64(0))
	f.Fuzz(func(t *testing.T, v0, dv, irr float64, lanes uint8, permSeed int64) {
		if math.IsNaN(v0) || math.IsInf(v0, 0) || math.IsNaN(dv) || math.IsInf(dv, 0) ||
			math.IsNaN(irr) || math.IsInf(irr, 0) {
			return // non-finite inputs are covered by the solver's own tests
		}
		n := int(lanes%100) + 1
		c := NewCell()
		rng := rand.New(rand.NewSource(permSeed))
		vs := make([]float64, n)
		for k := range vs {
			vs[k] = v0 + float64(k)*dv
		}
		rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		want := make([]float64, n)
		for k, v := range vs {
			want[k] = c.Current(v, irr)
		}
		sweep := c.SolveBatch(vs, []float64{irr}, nil, nil)
		laned := c.SolveBatch(vs, []float64{irr}, nil, NewBatchSolver(n))
		for k := range vs {
			if sweep[k] != want[k] {
				t.Fatalf("lane %d (v=%x irr=%x) sweep: got %x want %x", k, vs[k], irr, sweep[k], want[k])
			}
			if laned[k] != want[k] {
				t.Fatalf("lane %d (v=%x irr=%x) laned: got %x want %x", k, vs[k], irr, laned[k], want[k])
			}
		}
	})
}

// TestBatchSolverLaneGrowth: Lane and grow keep existing warm states while
// extending, and Reset cold-starts everything.
func TestBatchSolverLaneGrowth(t *testing.T) {
	c := NewCell()
	bs := NewBatchSolver(2)
	c.SolveBatch([]float64{0.9, 1.0}, []float64{1.0}, nil, bs)
	if !bs.Lane(0).warm {
		t.Fatal("lane 0 not warm after solve")
	}
	if got := bs.Lanes(); got != 2 {
		t.Fatalf("Lanes() = %d, want 2", got)
	}
	if bs.Lane(5).warm {
		t.Fatal("grown lane unexpectedly warm")
	}
	if got := bs.Lanes(); got != 6 {
		t.Fatalf("Lanes() after growth = %d, want 6", got)
	}
	if !bs.Lane(0).warm {
		t.Fatal("growth discarded lane 0's warm state")
	}
}
