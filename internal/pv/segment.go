package pv

// Direct V(I) solve for one series segment of an Array.
//
// The reference segment solve (segmentVoltageReference) bisects the
// segment's terminal voltage over [0, Voc] to 1e-7 V: about 24 probes, each
// a full Cell.Current solve. The string-current bisection calls it ~22
// times per string voltage, and GlobalMPP/LocalMPPs make 300+ power probes
// per irradiance pattern, which put this chain at ~99% of the ext-shading
// experiment's CPU.
//
// The fast path solves the segment's own equation directly in the diode
// voltage vd = V + I*Rs,
//
//	g(vd) = Iph - Id(vd) - vd/Rsh - I,  Id(vd) = I0*(exp(vd/s) - 1) for vd > 0, else 0,
//
// with Newton on the analytic slope g'(vd) = -Id'(vd) - 1/Rsh. g is strictly
// decreasing (g' <= -1/Rsh) and concave (Id, clamp included, is convex), so
// a Newton step from any point lands on or right of the root, after which
// the iterates decrease monotonically to it. The diode-only point
// xd = s*log1p((Iph-I)/I0), where Id = Iph - I and so g = -xd/Rsh <= 0, is
// right of the root as well; starting at or left of it and capping every
// iterate there bounds the overshoot of a step taken from far left of the
// root. Each segment keeps its previous root as the next warm start: the
// scans and the string-current bisection probe neighbouring currents in
// long runs. The terminal root is V* = vd* - I*Rs.
//
// Bit-exactness. As in newton.go, the solve does not return V*: the
// reference's answer is the midpoint of its final dyadic interval, and its
// decisions are made on Cell.Current's rounded output, not on the true
// curve. replay therefore re-runs the reference bisection's arithmetic and
// answers each probe's test "Cell.Current(m) > I" from m's position relative
// to V*, calling Cell.Current only for probes inside a guard band around
// V*. Three terms size the band:
//
//   - Cell.Current's output error curErr. Current is bit-identical to
//     currentBisect, whose final bracket is at most 1e-12 A wide, so its
//     midpoint lies within 0.5e-12 A of every current the bracket could
//     hold. The true current can sit outside the bracket by at most the
//     width of the region where the residual's floating-point sign is
//     ambiguous: the residual's terms are bounded by ~4*Iph near the root,
//     and the rounding of the diode exponent's argument x = vd/s is
//     amplified by x, so the noise is below 20*(1+x)*eps*Iph, and |f'| >= 1
//     keeps the ambiguous width in I no larger. curErr charges twice the
//     half-width plus 256*(1+xMax)*eps*Iph, xMax bounding x over the
//     segment's operating range. (The Rs = 0 closed form carries only the
//     rounding term.)
//   - the slope of the true curve: dI/dV = -1/(Rs + 1/(Id' + 1/Rsh)), so
//     |dI/dV| >= 1/(Rs+Rsh), and |I(m) - I| >= |m - V*|/(Rs+Rsh). A probe
//     farther than (Rs+Rsh)*curErr from the exact V* has
//     |I(m) - I| > curErr, so Cell.Current(m) > I exactly when m < V*.
//   - the Newton root's certified error. |g'| >= 1/Rsh makes
//     Rsh*|g(vd)| a bound on |vd - vd*|. An iterate is accepted once
//     Rsh*(|g| + a bound on g's rounding error) is at most an eighth of
//     (Rs+Rsh)*curErr; forming V* from vd adds a few ulps.
//
// The band is 2*((Rs+Rsh)*curErr + the root's certified error), the factor
// of two absorbing the rounding of the band and of the distance test. Probes
// outside it decide exactly as the reference does; probes inside it call
// Cell.CurrentWarm (bit-identical to Current) with a per-segment state.
// With the default cell the band is ~1e-8 V against the bisection's final
// 1e-7 V interval, so a solve evaluates Cell.Current well under once on
// average.
//
// The argument rests on Cell.Current's bisection behaving as analysed:
// bracket [-Iph, Iph] never extended, final width reached within the
// iteration cap and not stalled by rounding. init checks the parameter
// envelope that guarantees this (finite, non-negative parameters; Iph at
// most segmentMaxIph, where ulp(Iph) is far below 1e-12 A; the true
// current at Voc well above -Iph). Outside the envelope, for non-finite
// inputs, and when Newton fails to certify a root, the segment falls back
// to segmentVoltageReference verbatim.

import "math"

const (
	// epsilon is the float64 machine epsilon, 2^-52.
	epsilon = 0x1p-52

	// segmentMaxIph bounds the photocurrent (A) of the direct path's
	// envelope: below it Cell.Current's bisection from [-Iph, Iph] reaches
	// its 1e-12 A interval in ~50 halvings, and ulp(Iph) <= 1.2e-13 A keeps
	// the midpoints distinct until it does.
	segmentMaxIph = 1e3

	// segmentCurrentErrAbs/Rel bound Cell.Current's output error:
	//
	//	curErr = segmentCurrentErrAbs + segmentCurrentErrRel*(1+xMax)*Iph.
	segmentCurrentErrAbs = 1e-12
	segmentCurrentErrRel = 256 * epsilon

	// segmentNewtonMaxIterations bounds the V(I) Newton iteration; warm
	// solves take 2-3 and cold ones under 10.
	segmentNewtonMaxIterations = 64
)

// segmentSolve is one segment's state for the direct V(I) solve: the
// parameters and error terms derived once per solver, and the warm start
// carried between calls. The zero value is uninitialised; init fills it on
// the segment's first non-bypassed solve.
type segmentSolve struct {
	ready  bool // init has run
	direct bool // the parameter envelope holds; otherwise always fall back

	iph, i0, rs, rsh    float64
	scale, invScale     float64 // s = Ns*n*VT and 1/s
	invRsh              float64
	bandBase, newtonTol float64 // (Rs+Rsh)*curErr and its Newton share (V)
	warm                bool
	lastVd              float64      // previous certified root (V)
	probe               *SolverState // warms in-band Cell.Current probes
}

// init derives the segment's constants and checks the envelope under which
// the replay band is sound; voc and isc are the solver's cached values.
func (g *segmentSolve) init(cell *Cell, irr, voc, isc float64) {
	g.ready = true
	rs, rsh, i0, js := cell.seriesResistance, cell.shuntResistance, cell.saturationCurrent, cell.junctionScale()
	iph := cell.photoCurrent(irr)
	if !(rs >= 0 && isFinite(rs) && rsh > 0 && isFinite(rsh) && i0 >= 0 && isFinite(i0) &&
		js > 0 && isFinite(js) && iph > 0 && iph <= segmentMaxIph &&
		voc >= 0 && isFinite(voc) && isFinite(isc)) {
		return
	}
	// At every operating point on [0, Voc] the diode argument is at most
	// (Voc + Iph*Rs)/s.
	xMax := (voc + iph*rs) / js
	curErr := segmentCurrentErrAbs + segmentCurrentErrRel*(1+xMax)*iph
	// The true current is decreasing in V, so it stays above
	// Current(Voc) - curErr on the whole probe range; requiring that to be
	// well above -Iph keeps Cell.Current's bracket unextended.
	if !(cell.Current(voc, irr)-curErr > -0.5*iph) {
		return
	}
	g.iph, g.i0, g.rs, g.rsh = iph, i0, rs, rsh
	g.scale, g.invScale, g.invRsh = js, 1/js, 1/rsh
	g.bandBase = (rs + rsh) * curErr
	g.newtonTol = 0.125 * g.bandBase
	g.direct = isFinite(g.bandBase) && isFinite(xMax)
}

// solve returns the segment's terminal voltage V* at string current
// `current` and the replay guard band around it, or ok=false when Newton
// does not certify a root.
func (g *segmentSolve) solve(current float64) (vstar, band float64, ok bool) {
	gap := g.iph - current
	var xd float64 // a diode voltage on or right of the root
	if g.i0 > 0 && gap > 0 {
		xd = g.scale * math.Log1p(gap/g.i0)
	} else {
		// The root lies where the diode is off (or there is no diode):
		// g is linear there and this is its zero.
		xd = gap * g.rsh
	}
	if !isFinite(xd) {
		return 0, 0, false
	}
	x := xd
	if g.warm && g.lastVd < xd {
		x = g.lastVd
	}
	for iter := 0; iter < segmentNewtonMaxIterations; iter++ {
		var arg, ie float64 // x/s and I0*exp(x/s), zero while the diode is off
		if x > 0 && g.i0 > 0 {
			arg = x * g.invScale
			ie = g.i0 * math.Exp(arg)
		}
		id := 0.0
		if ie > 0 {
			id = ie - g.i0
		}
		r := g.iph - id - x*g.invRsh - current
		// rErr bounds the rounding of r: the exponent's argument carries
		// ~2 ulps, which exp amplifies by arg; every other term a few ulps.
		rErr := 8 * epsilon * ((arg+2)*ie + g.iph + math.Abs(current) + math.Abs(x)*g.invRsh + g.i0)
		if !isFinite(r) || !isFinite(rErr) {
			return 0, 0, false
		}
		if dvd := g.rsh * (math.Abs(r) + rErr); dvd <= g.newtonTol {
			vstar = x - current*g.rs
			certified := dvd + 4*epsilon*(math.Abs(x)+math.Abs(current*g.rs))
			if !isFinite(vstar) {
				return 0, 0, false
			}
			g.warm, g.lastVd = true, x
			return vstar, 2 * (g.bandBase + certified), true
		}
		next := x + r/(ie*g.invScale+g.invRsh)
		if next > xd {
			next = xd
		}
		if !isFinite(next) {
			return 0, 0, false
		}
		x = next
	}
	return 0, 0, false
}

// replay reproduces segmentVoltageReference bit for bit: the same bracket
// arithmetic and the same decisions, each taken from the probe's position
// relative to vstar outside the guard band and from Cell.Current inside it.
func (g *segmentSolve) replay(cell *Cell, irr, voc, current, vstar, band float64) float64 {
	lo, hi := 0.0, voc
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		if sameBinade(lo, hi) {
			var inBand bool
			if lo, hi, iter, inBand = bisectBits(lo, hi, vstar, band, voltageSolveTolerance, iter, nil); !inBand {
				break
			}
		}
		mid := 0.5 * (lo + hi)
		above := mid < vstar // Cell.Current(mid) > current
		if math.Abs(mid-vstar) <= band {
			if g.probe == nil {
				g.probe = new(SolverState)
			}
			above = cell.CurrentWarm(mid, irr, g.probe) > current
		}
		if above {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
