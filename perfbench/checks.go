package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/gae"
	"repro/internal/noise"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/transient"
)

// The checks below hold the program's outputs against computations made
// apart from the method that produced them (a plain transient instead of
// shooting, a charge pulse instead of the adjoint, quadrature instead of an
// ensemble, integer arithmetic instead of phase logic) or against properties
// the method must have. Each returns nil or the reason the output is wrong.

// Tolerances, stated once so the README can quote them.
const (
	tolF0         = 5e-3 // relative: shooting f0 vs a plain trapezoidal transient's zero crossings
	tolFloquet    = 1e-3 // |μ₀ − 1| of the trivial Floquet multiplier
	tolPulse      = 0.05 // PPV-predicted vs simulated phase shift, share of the largest shift
	tolArrayT     = 0.02 // relative: each coupled ring's period vs the isolated ring's
	railSlack     = 0.05 // share of Vdd a node may overshoot a rail
	tolAdler      = 0.10 // relative: band/amplitude at the two smallest amplitudes
	kramersFactor = 2.0  // measured hop rate within this factor of the quadrature rate
	tolCornerF0   = 1e-6 // relative: batched corner f0 vs a cold scalar solve
	tolCornerV    = 5e-2 // relative: batched corner |V1|, |V2|, lock width vs scalar (grids differ in phase origin)
)

// risingCrossings returns the times at which v rises through level, by
// linear interpolation between samples.
func risingCrossings(t, v []float64, level float64) []float64 {
	var out []float64
	for i := 1; i < len(v); i++ {
		if v[i-1] < level && v[i] >= level {
			f := (level - v[i-1]) / (v[i] - v[i-1])
			out = append(out, t[i-1]+f*(t[i]-t[i-1]))
		}
	}
	return out
}

// lastPeriod is the mean crossing interval over the last n intervals.
func lastPeriod(cr []float64, n int) (float64, error) {
	if len(cr) < n+1 {
		return 0, fmt.Errorf("only %d rising crossings, need %d", len(cr), n+1)
	}
	return (cr[len(cr)-1] - cr[len(cr)-1-n]) / float64(n), nil
}

// transientPeriod integrates sys from x0 for cycles periods of length tGuess
// with its own step (not the shooting grid) and measures the period of node
// from its rising mid-rail crossings over the last half of the run.
func transientPeriod(ctx context.Context, sys *circuit.System, x0 []float64, node int, level, tGuess float64, cycles int) (float64, error) {
	res, err := transient.RunCtx(ctx, sys, x0, 0, float64(cycles)*tGuess,
		transient.Options{Method: transient.Trap, Step: tGuess / 1500})
	if err != nil {
		return 0, err
	}
	return lastPeriod(risingCrossings(res.T, res.Node(node), level), cycles/2)
}

// checkF0 compares a claimed oscillation frequency with the period measured
// by a plain transient.
func checkF0(claimed, measuredPeriod float64) error {
	if rel := math.Abs(claimed*measuredPeriod - 1); !(rel <= tolF0) {
		return fmt.Errorf("f0 %.8g Hz but the transient oscillates at %.8g Hz (rel. error %.2g > %g)",
			claimed, 1/measuredPeriod, rel, tolF0)
	}
	return nil
}

// checkFloquet requires the trivial multiplier of an autonomous orbit.
func checkFloquet(sol *pss.Solution) error {
	if len(sol.Multipliers) == 0 {
		return fmt.Errorf("no Floquet multipliers")
	}
	if d := cmplx.Abs(sol.Multipliers[0] - 1); !(d <= tolFloquet) {
		return fmt.Errorf("leading Floquet multiplier %v is %.2g from 1", sol.Multipliers[0], d)
	}
	return nil
}

// checkPPVPulse verifies the PPV's defining property: a small charge q
// injected into node at orbit phase φ advances the oscillation by
// VI(φ)[node]·q seconds. Each phase is simulated twice from the orbit state
// (with and without the charge) and the shift is read from a rising crossing
// of node after the orbital deviation has died away.
func checkPPVPulse(ctx context.Context, sys *circuit.System, sol *pss.Solution, p *ppv.PPV, node int, level float64, phases []float64) error {
	gain := sys.InjectionGain(node)
	// A charge that moves the node by ~10 mV: small against the swing, large
	// against the integrator's error.
	q := 0.01 / math.Abs(gain[node])
	viMax := 0.0
	for _, v := range p.VI {
		viMax = math.Max(viMax, math.Abs(v[node]))
	}
	const cycles = 8
	opt := transient.Options{Method: transient.Trap, Step: sol.T0 / 1024}
	for _, ph := range phases {
		k := int(math.Round(ph * float64(sol.K())))
		var cross [2][]float64
		for j, qq := range []float64{0, q} {
			x := sol.States[k].Clone()
			for i := range x {
				x[i] += qq * gain[i]
			}
			res, err := transient.RunCtx(ctx, sys, x, 0, cycles*sol.T0, opt)
			if err != nil {
				return err
			}
			cross[j] = risingCrossings(res.T, res.Node(node), level)
		}
		// Read the shift at the unperturbed crossing nearest to 6.5 periods
		// in (the orbital deviation has died away, the window end is far)
		// against the perturbed crossing nearest to it: matching by time,
		// not by index, because a pulse at a crossing can add or remove one.
		ref, ok := nearest(cross[0], 6.5*sol.T0)
		got, ok2 := nearest(cross[1], ref)
		if !ok || !ok2 {
			return fmt.Errorf("phase %.2f: no crossings to compare", ph)
		}
		measured := ref - got
		predicted := p.VI[k][node] * q
		if d := math.Abs(measured - predicted); !(d <= tolPulse*viMax*q) {
			return fmt.Errorf("phase %.2f: charge pulse shifted the phase by %.4g s, the PPV predicts %.4g s",
				ph, measured, predicted)
		}
	}
	return nil
}

// nearest returns the element of xs closest to t.
func nearest(xs []float64, t float64) (float64, bool) {
	best, ok := 0.0, false
	for _, x := range xs {
		if !ok || math.Abs(x-t) < math.Abs(best-t) {
			best, ok = x, true
		}
	}
	return best, ok
}

// checkSum requires the decoded adder outputs (s0..s{n-1}, cout) to spell
// the integer a + b.
func checkSum(bits []bool, n int, a, b int) error {
	if len(bits) != n+1 {
		return fmt.Errorf("%d output bits for a %d-bit adder", len(bits), n)
	}
	got := 0
	for i, v := range bits {
		if v {
			got |= 1 << i
		}
	}
	if got != a+b {
		return fmt.Errorf("%d + %d decoded as %d", a, b, got)
	}
	return nil
}

// checkTableRow requires the outputs for input row to match the truth table.
func checkTableRow(bits []bool, table [][]bool, row int) error {
	want := table[row]
	if len(bits) != len(want) {
		return fmt.Errorf("%d outputs, table has %d", len(bits), len(want))
	}
	for i := range want {
		if bits[i] != want[i] {
			return fmt.Errorf("row %d output %d: got %v, table says %v", row, i, bits[i], want[i])
		}
	}
	return nil
}

// checkArray requires every ring of a coupled array to oscillate within
// tolArrayT of the isolated ring's period and every node to stay within the
// rails.
func checkArray(res *transient.Result, stage0 []int, nodes int, vdd, tIso float64, cycles int) error {
	for r, nd := range stage0 {
		per, err := lastPeriod(risingCrossings(res.T, res.Node(nd), vdd/2), cycles/2)
		if err != nil {
			return fmt.Errorf("ring %d: %v", r, err)
		}
		if rel := math.Abs(per/tIso - 1); !(rel <= tolArrayT) {
			return fmt.Errorf("ring %d: period %.6g s vs isolated %.6g s (rel. %.3g > %g)", r, per, tIso, rel, tolArrayT)
		}
	}
	lo, hi := -railSlack*vdd, (1+railSlack)*vdd
	for _, x := range res.X {
		for i := 0; i < nodes; i++ {
			if !(x[i] >= lo && x[i] <= hi) {
				return fmt.Errorf("node %d at %.4g V, outside the rails [0, %g]", i, x[i], vdd)
			}
		}
	}
	return nil
}

// bandPoint is one locking-sweep sample as the service reports it.
type bandPoint struct{ amp, lo, hi float64 }

// checkAdler requires the locking band to widen with SYNC amplitude and, at
// the smallest amplitudes, to grow in proportion to it (Adler's law).
func checkAdler(pts []bandPoint) error {
	for i, p := range pts {
		if !(p.hi > p.lo) {
			return fmt.Errorf("amplitude %.3g A does not lock", p.amp)
		}
		if i > 0 && !(p.hi-p.lo > pts[i-1].hi-pts[i-1].lo) {
			return fmt.Errorf("band narrows from %.4g to %.4g Hz as amplitude grows to %.3g A",
				pts[i-1].hi-pts[i-1].lo, p.hi-p.lo, p.amp)
		}
	}
	if len(pts) >= 2 {
		r0 := (pts[0].hi - pts[0].lo) / pts[0].amp
		r1 := (pts[1].hi - pts[1].lo) / pts[1].amp
		if rel := math.Abs(r1/r0 - 1); !(rel <= tolAdler) {
			return fmt.Errorf("band/amplitude %.4g vs %.4g Hz/A at the two smallest amplitudes: not proportional", r0, r1)
		}
	}
	return nil
}

// Errors of the two checks that known program faults trip (README,
// "Program faults"); opSignoff is declared to fail with them.
var (
	errBERRange = errors.New("BER outside [0, 1]")
	errHopRate  = errors.New("hop rate off the Kramers rate")
)

// checkBERs requires every bit-error rate to be a probability.
func checkBERs(res []noise.BERResult) error {
	for i, r := range res {
		if !(r.BER >= 0 && r.BER <= 1) {
			return fmt.Errorf("corner %d: %w: %g (%d hops in %d bits)", i, errBERRange, r.BER, r.Hops, r.Bits)
		}
	}
	return nil
}

// kramersRate is the escape rate of the locked phase over its barriers:
// the inverse mean first-passage time from the stable lock Δφ* to either
// neighbouring lock Δφ* ± ½ under dΔφ = RHS(Δφ)dt + √D dW. It solves the
// backward equation RHS·T′ + (D/2)·T″ = −1, T(Δφ* ± ½) = 0, by quadrature
// over the model's own g(Δφ); no ensemble is involved.
func kramersRate(m *gae.Model, d float64) float64 {
	const n = 8000
	x0 := stableLockNear(m, 0)
	lo, h := x0-0.5, 1.0/n
	// Φ(x) = ∫ 2·RHS/D, I(x) = ∫ e^Φ, M(x) = ∫ e^−Φ, MI(x) = ∫ e^−Φ·I, all
	// from lo by the trapezoidal rule.
	phi := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		xa, xb := lo+float64(i-1)*h, lo+float64(i)*h
		phi[i] = phi[i-1] + h*(m.RHS(xa)+m.RHS(xb))/d
	}
	I := make([]float64, n+1)
	M := make([]float64, n+1)
	MI := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		I[i] = I[i-1] + h*(math.Exp(phi[i-1])+math.Exp(phi[i]))/2
	}
	for i := 1; i <= n; i++ {
		M[i] = M[i-1] + h*(math.Exp(-phi[i-1])+math.Exp(-phi[i]))/2
		MI[i] = MI[i-1] + h*(math.Exp(-phi[i-1])*I[i-1]+math.Exp(-phi[i])*I[i])/2
	}
	// T(x) = C·M(x) − (2/D)·MI(x) with C fixed by T(lo + 1) = 0; the lock
	// sits at the midpoint.
	c := 2 / d * MI[n] / M[n]
	return 1 / (c*M[n/2] - 2/d*MI[n/2])
}

// stableLockNear returns the stable equilibrium of m closest to dphi.
func stableLockNear(m *gae.Model, dphi float64) float64 {
	best, bd := dphi, math.Inf(1)
	for _, e := range m.StableEquilibria() {
		if d := gae.CircularDistance(e.Dphi, dphi); d < bd {
			best, bd = e.Dphi, d
		}
	}
	return best
}

// checkKramers compares a hop count over total simulated seconds with the
// quadrature rate.
func checkKramers(hops int, seconds, rate float64) error {
	got := float64(hops) / seconds
	if !(got <= kramersFactor*rate && got >= rate/kramersFactor) {
		return fmt.Errorf("%w: nominal latch hops at %.4g /s, Kramers quadrature gives %.4g /s (factor > %g)", errHopRate, got, rate, kramersFactor)
	}
	return nil
}

// relClose reports |a−b| ≤ tol·|b|.
func relClose(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }

// sameBits compares two float slices bit for bit.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d values reopened as %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d]: %v reopened as %v", what, i, a[i], b[i])
		}
	}
	return nil
}

func sameComplex(what string, a, b []complex128) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d values reopened as %d", what, len(a), len(b))
	}
	for i := range a {
		if err := sameBits(what, []float64{real(a[i]), imag(a[i])}, []float64{real(b[i]), imag(b[i])}); err != nil {
			return err
		}
	}
	return nil
}

// sameSolution requires a reopened steady state to be bit-identical to the
// computed one: the artifact codec must be lossless.
func sameSolution(a, b *pss.Solution) error {
	if err := sameBits("pss scalars", []float64{a.T0, a.F0, a.Residual, float64(a.Iterations)},
		[]float64{b.T0, b.F0, b.Residual, float64(b.Iterations)}); err != nil {
		return err
	}
	if err := sameBits("pss X0", a.X0, b.X0); err != nil {
		return err
	}
	if err := sameBits("pss grid", a.Grid, b.Grid); err != nil {
		return err
	}
	if len(a.States) != len(b.States) {
		return fmt.Errorf("pss: %d states reopened as %d", len(a.States), len(b.States))
	}
	for k := range a.States {
		if err := sameBits("pss state", a.States[k], b.States[k]); err != nil {
			return err
		}
	}
	if (a.Monodromy == nil) != (b.Monodromy == nil) {
		return fmt.Errorf("pss monodromy presence changed on reopen")
	}
	if a.Monodromy != nil {
		if a.Monodromy.Rows != b.Monodromy.Rows || a.Monodromy.Cols != b.Monodromy.Cols {
			return fmt.Errorf("pss monodromy shape changed on reopen")
		}
		if err := sameBits("pss monodromy", a.Monodromy.Data, b.Monodromy.Data); err != nil {
			return err
		}
	}
	return sameComplex("pss multipliers", a.Multipliers, b.Multipliers)
}

// samePPV requires a reopened PPV to be bit-identical to the computed one.
func samePPV(a, b *ppv.PPV) error {
	if err := sameBits("ppv scalars", []float64{a.T0, a.F0, a.NormError}, []float64{b.T0, b.F0, b.NormError}); err != nil {
		return err
	}
	if len(a.VI) != len(b.VI) || len(a.NodeSeries) != len(b.NodeSeries) {
		return fmt.Errorf("ppv shape changed on reopen")
	}
	for k := range a.VI {
		if err := sameBits("ppv VI", a.VI[k], b.VI[k]); err != nil {
			return err
		}
	}
	for n := range a.NodeSeries {
		if (a.NodeSeries[n] == nil) != (b.NodeSeries[n] == nil) {
			return fmt.Errorf("ppv node %d series presence changed on reopen", n)
		}
		if a.NodeSeries[n] != nil {
			if err := sameComplex("ppv series", a.NodeSeries[n].Coef, b.NodeSeries[n].Coef); err != nil {
				return err
			}
		}
	}
	return nil
}
