package pv

// Fast solver path for the implicit single-diode equation.
//
// With series resistance the terminal current solves
//
//	f(I) = Iph - Id(V + I*Rs) - (V + I*Rs)/Rsh - I = 0,
//
// which the original implementation bisects from the fixed bracket
// [-Iph, Iph] down to a 1e-12 A interval — ~45 exponential evaluations per
// call, and the single hottest operation of the transient simulator: every
// fixed step of circuit.Simulator.Run performs exactly one such solve.
//
// The fast path replaces the search with Newton-Raphson on the analytic
// derivative
//
//	f'(I) = -Id'(V+I*Rs)*Rs - Rs/Rsh - 1,  Id'(vd) = I0/s * exp(vd/s),
//
// which converges in a handful of iterations from a cold start and in 1-2
// iterations when warm-started from the previous step's operating point
// (SolverState): the capacitor voltage moves by microvolts per step, so the
// previous root is an excellent guess. f is strictly decreasing (f' <= -1)
// and concave, so Newton converges globally: one step from the left of the
// root lands on the right, after which the iterates decrease monotonically.
//
// Bit-exactness. The repository's golden traces and report snapshots were
// produced by the bisection, whose answer is the midpoint of its final
// dyadic interval — not the mathematical root — so simply returning the
// Newton root (even at far tighter tolerance) would drift the goldens.
// Instead, the fast path REPLAYS the bisection's decision sequence against
// the Newton root: every sign test "f(x) > 0" the bisection would perform
// is equivalent to "x < root" whenever x lies outside a guard band around
// the root that is orders of magnitude wider than both the Newton root's
// error and the band where the floating-point residual's sign is ambiguous
// (~eps-level; f' <= -1 bounds the amplification). The rare probe that
// falls inside the band evaluates the true residual, exactly as the
// bisection would. The replayed result is therefore bit-identical to
// CurrentReference for every input while evaluating the exponential a
// handful of times instead of ~45.
//
// The replay's deep levels run on integers (bisectBits). Once lo and hi
// are both positive, normal and in one binade [2^e, 2^(e+1)) below the
// largest, with ulp u = 2^(e-52), the bisection's float arithmetic is
// exact integer arithmetic on their bit patterns lb, hb:
//
//   - lo+hi lies in the next binade, where it rounds to a multiple of 2u,
//     and 0.5*(lo+hi) is then exact, so the bits of mid are the halved
//     sum s = lb+hb rounded to nearest even: m = s>>1, m += s & m & 1.
//     The result stays inside [lo, hi], so the bracket keeps its binade.
//   - hi-lo = (hb-lb)*u is exact (Sterbenz: hi/2 <= lo <= hi), so the
//     loop test "hi-lo > tol" is "hb-lb > floor(tol/u)". tol/u is a
//     power-of-two scaling, exact, and below 2^52 whenever a level
//     remains (hi-lo < 2^e), so it converts to uint64 without loss.
//   - positive floats order as their bits, so "mid < root" is the
//     unsigned compare mb < rb, with rb = 0 when root <= 0 (no mid is).
//
// The select takes a mask from the sign of mb-rb rather than a branch: the
// decisions are the binary digits of the root's position, which a branch
// predictor cannot learn. The levels before the bracket settles into one
// positive binade, and brackets that never do (negative or mixed-sign
// roots), run the floating-point loop; the guard-band test stays in
// floating point at every level, so the integer loop hands exactly the
// same probe to the banded loop. segmentSolve.replay shares bisectBits.
//
// Robustness. Whenever the fast path's assumptions do not hold — degenerate
// cell parameters, non-finite inputs, a Newton iteration that fails to
// converge or produces non-finite values — the solve falls back to the
// reference bisection verbatim, so the fast path is never less robust than
// the original solver.

import "math"

const (
	// newtonMaxIterations bounds the Newton iteration; warm solves use 1-2,
	// cold solves ~4-8, and anything that runs this long falls back to the
	// reference bisection.
	newtonMaxIterations = 48

	// replayMarginAbs/Rel size the guard band around the Newton root inside
	// which the replayed bisection evaluates the true residual instead of
	// trusting the root comparison:
	//
	//	margin = replayMarginAbs + replayMarginRel*(|root| + Iph).
	//
	// The band must exceed the Newton root's error plus the width of the
	// region where the computed residual's floating-point sign is ambiguous.
	// The residual's terms are bounded by ~2*(Iph + |root|) near the root, so
	// its rounding noise — and, since f' <= -1, the width of the ambiguous
	// region — is ~1e-15*(Iph + |root|); the relative coefficient keeps
	// ~500x headroom over that while staying well below the bisection's
	// final 1e-12 A interval, so replay probes almost never land inside the
	// band (each in-band probe costs one residual evaluation).
	replayMarginAbs = 5e-14
	replayMarginRel = 5e-13

	// newtonAcceptFraction accepts a Newton iterate once |f(i)| (which bounds
	// the distance to the true root, because |f'| >= 1) is this fraction of
	// the replay guard band. A step-size test alone is not sufficient: where
	// the diode exponential makes the slope enormous, a tiny Newton step does
	// not imply a small residual.
	newtonAcceptFraction = 0.125

	// expAnchorMaxDelta/expApproxRelErr govern the anchored exponential: on
	// a transient the diode argument vd/s drifts by ~1e-5 per step, so the
	// warm path refreshes exp via math.Exp only when the argument has moved
	// more than expAnchorMaxDelta from the anchored evaluation and otherwise
	// updates it with a cubic Taylor factor, exp(a+d) = exp(a)*(1+d+d²/2+d³/6).
	// The truncation (d⁴/24 ≈ 3.4e-16 at the widest d), the update's ~5
	// rounding operations and the anchor's own ulp stay below
	// expApproxRelErr, which the acceptance tests charge against their error
	// budget (see fErr in newtonRoot) — acceptance therefore stays rigorous,
	// an approximate exponential can only cost extra iterations, never a
	// wrong accept.
	expAnchorMaxDelta = 3e-4
	expApproxRelErr   = 2e-15
)

// SolverState carries the operating point of one implicit-equation solve to
// the next, warm-starting Newton across the steps of a transient
// simulation. The zero value is a valid cold state. Results never depend on
// the state's history — CurrentWarm is bit-identical to Current for every
// input; the state only changes how fast the solve converges. A SolverState
// must not be shared between concurrent solvers.
type SolverState struct {
	warm  bool
	lastI float64

	// Replayed-bisection trajectory cache. stack[j] is the bracket before
	// bisection iteration j of the most recent replay, recorded for the
	// photocurrent cacheIph (0 = nothing recorded); depth indexes the final
	// bracket. Brackets are nested, and every probe of a recorded run lies
	// outside its later brackets with a sign consistent with its position,
	// so a new solve whose guard band sits strictly inside stack[k] would
	// reproduce the first k decisions verbatim — it can resume from
	// stack[k] instead of from [-Iph, Iph]. Validity never depends on the
	// voltage the stack was recorded at.
	cacheIph float64
	depth    int
	stack    [maxSolverIterations + 1][2]float64

	// Derived-parameter cache: the inverses and curvature coefficient the
	// Newton loop needs, valid while the raw parameters they were derived
	// from still match (the raws were validated when stored, so a match also
	// re-establishes solvability without re-checking). Saves two divisions
	// per warm solve.
	derivedOK              bool
	pRs, pRsh, pI0, pScale float64
	invRsh, invScale       float64
	curvCoef               float64

	// Anchored exponential: expVal = exp(expArg) computed by math.Exp.
	// Arguments within expAnchorMaxDelta of the anchor are served by a
	// Taylor update instead of a fresh exp. The anchor is a pure fact about
	// exp — it stays valid across cells and parameter changes.
	expArg, expVal float64

	// Work counters, not results: Fallbacks counts the solves that left
	// Newton for the reference bisection, BandEvals the residuals the
	// replay evaluated for probes inside its guard band.
	Fallbacks, BandEvals int
}

// CurrentWarm returns exactly Current(v, irradiance), reusing state to
// warm-start the implicit solve. Transient simulators call it once per step
// with a per-run state so consecutive solves converge in 1-2 Newton
// iterations; all other callers can keep using the stateless Current.
func (c *Cell) CurrentWarm(v, irradiance float64, state *SolverState) float64 {
	if irradiance <= 0 {
		return 0
	}
	iph := c.photoCurrent(irradiance)
	if c.seriesResistance == 0 {
		return iph - c.diodeCurrent(v) - v/c.shuntResistance
	}
	return c.currentFast(v, iph, state)
}

// CurrentReference returns the terminal current solved by the original
// bisection only, with no Newton acceleration. It is the correctness oracle
// for the fast path and its fallback; Current and CurrentWarm return
// bit-identical values, just faster.
func (c *Cell) CurrentReference(v, irradiance float64) float64 {
	if irradiance <= 0 {
		return 0
	}
	iph := c.photoCurrent(irradiance)
	if c.seriesResistance == 0 {
		return iph - c.diodeCurrent(v) - v/c.shuntResistance
	}
	return c.currentBisect(v, iph)
}

// currentFast solves the implicit equation with warm-started Newton plus a
// bit-exact bisection replay, falling back to the reference bisection when
// the fast path's assumptions fail.
func (c *Cell) currentFast(v, iph float64, state *SolverState) float64 {
	if isFinite(v) && iph > 0 && isFinite(iph) {
		var guess float64
		if state != nil && state.warm {
			guess = state.lastI
		} else {
			// Cold start from the Rs = 0 solution: one diode evaluation
			// that lands within a few Newton steps of the root.
			guess = iph - c.diodeCurrent(v) - v/c.shuntResistance
		}
		if root, ok := c.newtonRoot(v, iph, guess, state); ok {
			if state != nil {
				state.warm = true
				state.lastI = root
			}
			return c.replayBisect(v, iph, root, state)
		}
	}
	if state != nil {
		state.warm = false
		state.Fallbacks++
	}
	return c.currentBisect(v, iph)
}

// loadResidual is f(I), the shared residual of the implicit equation. The
// reference bisection, the Newton iteration and the replay guard band all
// evaluate exactly these floating-point operations, which is what makes the
// fast path bit-compatible with the reference.
func (c *Cell) loadResidual(v, iph, i float64) float64 {
	vd := v + i*c.seriesResistance
	return iph - c.diodeCurrent(vd) - vd/c.shuntResistance - i
}

// newtonRoot runs the Newton iteration from guess and reports whether it
// converged to a finite root. It also owns the fast path's parameter
// envelope: on a derived-cache miss it checks the monotonicity and
// finiteness assumptions (these are what guarantee f' <= -1 and the
// concavity that Newton's global convergence and the replay's sign
// predictions rest on) and returns ok=false outside them, sending the
// caller to the reference bisection.
//
// Each iteration evaluates the exponential once — through the state's
// anchored-exp cache when warm — and derives both the residual f and the
// analytic slope
//
//	f'(I) = -Id'(V+I*Rs)*Rs - Rs/Rsh - 1 <= -1
//
// from it. Convergence is judged on the residual, not the step size:
// |f'| >= 1 makes |f(i)| an upper bound on the distance to the true root,
// so an iterate is accepted only once that bound sits far inside the replay
// guard band. When the exponential was approximated, fErr bounds the
// resulting |f| error and is charged against the acceptance budget, so an
// accept always certifies the true residual.
func (c *Cell) newtonRoot(v, iph, guess float64, state *SolverState) (root float64, ok bool) {
	rs, rsh, i0 := c.seriesResistance, c.shuntResistance, c.saturationCurrent
	js := c.junctionScale()
	var invRsh, invScale, curvCoef float64
	if state != nil && state.derivedOK &&
		state.pRs == rs && state.pRsh == rsh && state.pI0 == i0 && state.pScale == js {
		invRsh, invScale, curvCoef = state.invRsh, state.invScale, state.curvCoef
	} else {
		if !(rs > 0 && isFinite(rs) && rsh > 0 && isFinite(rsh) &&
			i0 >= 0 && isFinite(i0) && js > 0 && isFinite(js)) {
			return 0, false
		}
		invRsh = 1 / rsh
		invScale = 1 / js
		curvCoef = i0 * (rs * invScale) * (rs * invScale) // the f'' coefficient I0*(Rs/s)^2
		if state != nil {
			state.pRs, state.pRsh, state.pI0, state.pScale = rs, rsh, i0, js
			state.invRsh, state.invScale, state.curvCoef = invRsh, invScale, curvCoef
			state.derivedOK = true
		}
	}
	// Loop invariants: the acceptance threshold is acceptBase+acceptRel*|i|
	// and the slope's resistive part.
	acceptBase := newtonAcceptFraction * (replayMarginAbs + replayMarginRel*iph)
	acceptRel := newtonAcceptFraction * replayMarginRel
	rsInvRsh := rs * invRsh
	i := guess
	if !isFinite(i) {
		i = 0
	}
	for iter := 0; iter < newtonMaxIterations; iter++ {
		vd := v + i*rs
		var id, didvd, e float64 // diode current, its derivative d(Id)/d(vd), exp(vd/s)
		fErr := 0.0              // bound on |f| error from the anchored exp
		if vd > 0 && i0 > 0 {
			x := vd * invScale
			if state != nil {
				if d := x - state.expArg; d < expAnchorMaxDelta && d > -expAnchorMaxDelta && state.expVal > 0 {
					e = state.expVal * (1 + d*(1+d*(0.5+d*(1.0/6))))
					fErr = expApproxRelErr * i0 * e
				} else {
					e = math.Exp(x)
					state.expArg, state.expVal = x, e
				}
			} else {
				e = math.Exp(x)
			}
			id = i0 * (e - 1)
			didvd = i0 * invScale * e
		}
		f := iph - id - vd*invRsh - i
		if !isFinite(f) {
			return 0, false
		}
		if math.Abs(f)+fErr <= acceptBase+acceptRel*math.Abs(i) {
			return i, true
		}
		slope := -didvd*rs - rsInvRsh - 1
		if !(slope < 0) || math.IsInf(slope, 0) {
			return 0, false
		}
		step := f / slope // the update is i -> i - step
		next := i - step
		if !isFinite(next) {
			return 0, false
		}
		// Quadratic-convergence shortcut: the tangent is zero at next, so
		// the Taylor remainder gives |f(next)| <= M/2*step^2 with M bounding
		// |f''| between the iterates, and |f'| >= 1 turns that into a bound
		// on the distance to the root. |f''| = I0*(Rs/s)^2*exp(vd/s) grows
		// with vd, so it is bounded by its value at the rightmost iterate:
		// e for a leftward update, e*exp(dvd/s) <= e/(1-dvd/s) for a
		// rightward one while dvd/s < 1/2. When the bound fits the
		// acceptance budget (at half weight, leaving the other half for the
		// ~1e-16-relative evaluation noise of the step arithmetic), the
		// update is accepted without paying a verification exponential —
		// this is what makes a warm solve cost at most one (often zero)
		// math.Exp calls. An approximated exponential perturbs both f and
		// the slope; the residual error is <= fErr and the slope error
		// contributes <= |step|*|growth per unit|*fErr <= 0.5*fErr while
		// growth < 0.5, so charging 1.5*fErr keeps the bound rigorous. The
		// bound does NOT hold across the vd = 0 kink, where diodeCurrent's
		// clamp makes f' jump and the remainder is first-order in the
		// overshoot; steps that cross it fall through to a regular evaluated
		// iteration.
		growth := -step * rs * invScale // dvd/s along the update
		if vdNext := v + next*rs; growth < 0.5 && (i0 == 0 || (vd > 0) == (vdNext > 0)) {
			m := curvCoef * e
			if growth > 0 {
				m /= 1 - growth
			}
			errBound := 0.5*m*step*step + 1.5*fErr
			if errBound <= 0.5*(acceptBase+acceptRel*math.Abs(next)) {
				return next, true
			}
		}
		i = next
	}
	return 0, false
}

// currentBisect is the original solver, kept verbatim as the fallback and
// the correctness oracle: bisection on I over [-iph, iph] (extended
// geometrically below -iph when the operating point lies far beyond Voc),
// exploiting that f is strictly decreasing in I.
func (c *Cell) currentBisect(v, iph float64) float64 {
	lo, hi := -iph, iph // allow negative current beyond Voc
	if c.loadResidual(v, iph, lo) < 0 {
		// Even the most negative candidate cannot satisfy the equation;
		// extend downward geometrically (happens only far beyond Voc).
		for iter := 0; c.loadResidual(v, iph, lo) < 0 && iter < maxSolverIterations; iter++ {
			lo *= 2
		}
	}
	for iter := 0; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		mid := 0.5 * (lo + hi)
		if c.loadResidual(v, iph, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// replayBisect reproduces currentBisect's result bit-for-bit using the
// Newton root: identical bracket arithmetic and identical branch decisions,
// but each residual sign test is answered by comparing the probe against
// the root — except inside the guard band, where the true residual is
// evaluated just as the bisection would.
func (c *Cell) replayBisect(v, iph, root float64, state *SolverState) float64 {
	margin := replayMarginAbs + replayMarginRel*(math.Abs(root)+iph)
	bandLo, bandHi := root-margin, root+margin
	lo, hi := -iph, iph
	start := 0
	// stack records this run's brackets for the next solve's resume; nil
	// when the run is not recorded.
	var stack *[maxSolverIterations + 1][2]float64
	if state != nil {
		// Resume from the deepest recorded bracket that still strictly
		// contains the guard band: nesting makes validity monotone in
		// depth. Bracket widths halve per level, so the number of levels to
		// climb from the final bracket is predicted from the exponent of
		// how far the band pokes out of it, then corrected by walking. On a
		// transient the root moves a hair per step, so this typically skips
		// over half the bisection.
		if state.cacheIph == iph && state.depth > 0 {
			d := state.depth
			fin := &state.stack[d]
			out := fin[0] - bandLo
			if o := bandHi - fin[1]; o > out {
				out = o
			}
			if out > 0 {
				if w := fin[1] - fin[0]; w > 0 {
					// Biased-exponent difference ~ log2(out/w), cheaper
					// than math.Ilogb; the walk below corrects it.
					eo := int(math.Float64bits(out)>>52) & 0x7ff
					ew := int(math.Float64bits(w)>>52) & 0x7ff
					d -= eo - ew + 3
				} else {
					d = 0
				}
				if d < 0 {
					d = 0
				}
				if d > state.depth {
					d = state.depth
				}
			}
			for ; d > 0; d-- { // walk up while the band still pokes out
				if b := &state.stack[d]; b[0] < bandLo && bandHi < b[1] {
					break
				}
			}
			for ; d < state.depth; d++ { // walk down while deeper is valid
				if b := &state.stack[d+1]; !(b[0] < bandLo && bandHi < b[1]) {
					break
				}
			}
			if b := &state.stack[d]; b[0] < bandLo && bandHi < b[1] {
				lo, hi, start = b[0], b[1], d
			}
		} else if state.cacheIph != iph {
			state.cacheIph = iph
			state.depth = 0
		}
		stack = &state.stack
	}
	if start == 0 && c.residualNegative(v, iph, lo, bandLo, bandHi, state) {
		// Bracket extension: the root lies below -iph (far beyond Voc).
		// The trajectory invariants do not cover extension probes, so this
		// run is not recorded and any cache is dropped.
		if state != nil {
			state.cacheIph = 0
			stack = nil
		}
		for iter := 0; c.residualNegative(v, iph, lo, bandLo, bandHi, state) && iter < maxSolverIterations; iter++ {
			lo *= 2
		}
	}
	// Main loop. Each sign test inlines "f(mid) > 0": strictly decreasing
	// f makes the sign follow from the probe's position relative to the
	// root outside the guard band; inside it control jumps to the banded
	// loop, which evaluates the true residual exactly as the bisection
	// would (an exactly-zero residual counts as not-positive, matching
	// currentBisect). Keeping that call out of the hot loops lets the
	// compiler hold the whole bracket iteration in registers; the direction
	// decisions themselves are the binary expansion of the root's position
	// within the bracket — unpredictable — so the select is routed through
	// integer conditional moves instead of a data-dependent branch that
	// would mispredict on most iterations. Once the bracket settles into one
	// positive binade the remaining levels run on its bits (bisectBits).
	iter := start
	for ; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		if sameBinade(lo, hi) {
			var inBand bool
			if lo, hi, iter, inBand = bisectBits(lo, hi, root, margin, 1e-12, iter, stack); inBand {
				goto banded
			}
			break
		}
		if stack != nil {
			stack[iter] = [2]float64{lo, hi}
		}
		mid := 0.5 * (lo + hi)
		if math.Abs(mid-root) <= margin { // rare, well-predicted
			goto banded
		}
		mb := math.Float64bits(mid)
		nl, nh := math.Float64bits(lo), mb
		if mid < root {
			nl = mb
		}
		if mid < root {
			nh = math.Float64bits(hi)
		}
		lo, hi = math.Float64frombits(nl), math.Float64frombits(nh)
	}
	goto done
banded:
	// A probe landed inside the guard band; once that happens the bracket
	// hugs the root and further in-band probes are likely, so the rest of
	// the run stays in this full-fidelity loop.
	for ; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		if stack != nil {
			stack[iter] = [2]float64{lo, hi}
		}
		mid := 0.5 * (lo + hi)
		if math.Abs(mid-root) <= margin {
			if state != nil {
				state.BandEvals++
			}
			if c.loadResidual(v, iph, mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		} else if mid < root {
			lo = mid
		} else {
			hi = mid
		}
	}
done:
	if stack != nil {
		stack[iter] = [2]float64{lo, hi}
		state.depth = iter
	}
	return 0.5 * (lo + hi)
}

// sameBinade reports whether lo and hi are both positive, normal and share
// one binade below the largest, the precondition of bisectBits.
func sameBinade(lo, hi float64) bool {
	e := math.Float64bits(lo) >> 52
	return e == math.Float64bits(hi)>>52 && e-1 < 0x7fd
}

// bisectBits runs the bisection levels "mid := 0.5*(lo+hi); if mid < root
// { lo = mid } else { hi = mid }" of a sameBinade bracket on the ends' bit
// patterns, bit-identically to the floating-point arithmetic (see the
// Bit-exactness note at the top of this file). It records each level's
// bracket in stack when non-nil, exactly as the floating-point loop does,
// and stops once the width is at most tol, at the iteration cap, or before
// a probe that lies within margin of root; inBand reports the last case,
// leaving that probe for the caller's full-fidelity loop.
func bisectBits(lo, hi, root, margin, tol float64, iter int, stack *[maxSolverIterations + 1][2]float64) (_, _ float64, _ int, inBand bool) {
	lb, hb := math.Float64bits(lo), math.Float64bits(hi)
	// The caller's loop test hi-lo > tol held, so tol/ulp < 2^52.
	ulp := math.Float64frombits(lb&^(1<<52-1)) * 0x1p-52
	minGap := uint64(tol / ulp)
	var rb uint64 // mid < root as an unsigned compare; no mid lies below 0
	if root > 0 {
		rb = math.Float64bits(root)
	}
	for ; iter < maxSolverIterations && hb-lb > minGap; iter++ {
		if stack != nil {
			stack[iter] = [2]float64{math.Float64frombits(lb), math.Float64frombits(hb)}
		}
		s := lb + hb
		mb := s >> 1
		mb += s & mb & 1 // round the halved sum to even
		if math.Abs(math.Float64frombits(mb)-root) <= margin {
			inBand = true
			break
		}
		lower := uint64(int64(mb-rb) >> 63) // all ones when mid < root
		lb = lb&^lower | mb&lower
		hb = mb&^lower | hb&lower
	}
	return math.Float64frombits(lb), math.Float64frombits(hb), iter, inBand
}

// residualNegative reports f(i) < 0 by the same argument as the inline sign
// test in replayBisect. It is not the negation of "f(i) > 0": the
// bisection's two predicates both treat an exactly-zero residual as false,
// and the replay preserves that. An evaluation is counted in state when
// non-nil.
func (c *Cell) residualNegative(v, iph, i, bandLo, bandHi float64, state *SolverState) bool {
	if i < bandLo {
		return false
	}
	if i > bandHi {
		return true
	}
	if state != nil {
		state.BandEvals++
	}
	return c.loadResidual(v, iph, i) < 0
}

// isFinite reports whether x is neither NaN nor infinite. x-x is zero
// exactly for finite x and NaN otherwise, which compiles to a single
// subtract-and-compare on the hot path.
func isFinite(x float64) bool {
	return x-x == 0
}
