package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/noise"
	"repro/internal/phlogic"
	"repro/internal/ringosc"
	"repro/internal/transient"
	"repro/internal/variation"
)

// runSelftest runs every workload at tiny scale (one operation per class),
// requires every check to pass on the program's real outputs, and feeds
// each check one deliberately corrupted output that it must reject.
func runSelftest() error {
	ctx := context.Background()
	for _, name := range workloadNames() {
		for _, tracing := range []bool{false, true} {
			b := newBench(1, tracing, tiny(mixes[name]))
			b.deepAll = true
			if _, err := b.run(ctx, 0); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for _, c := range b.classes {
				// Failures under a declared program fault (README) are
				// expected: the self-test proves the benchmark, not the
				// program.
				if c.failed > c.faulted {
					return fmt.Errorf("%s: %s failed on a real output: %v", name, c.name, c.firstErr)
				}
			}
		}
	}

	fx, err := newFixture(ctx)
	if err != nil {
		return err
	}
	defer fx.close()
	cases, err := corruptionCases(ctx, fx)
	if err != nil {
		return err
	}
	for _, tc := range cases {
		if err := tc.good(); err != nil {
			return fmt.Errorf("%s: check rejects the real output: %v", tc.name, err)
		}
		if err := tc.bad(); err == nil {
			return fmt.Errorf("%s: check accepts a corrupted output", tc.name)
		}
		fmt.Printf("selftest: %-22s rejects the corrupted output\n", tc.name)
	}
	return nil
}

// tiny shrinks a workload to one operation of each of its classes.
func tiny(m mix) mix {
	one := func(n int) int { return min(n, 1) }
	return mix{
		name: m.name, own: m.own, charStages: m.charStages[:1], words: m.words[:1], arrays: m.arrays[:1],
		logic4: one(m.logic4), logic8: one(m.logic8), unique: one(m.unique),
		sweeps: one(m.sweeps), ppvs: one(m.ppvs), studies: one(m.studies),
		arrayCycles: m.arrayCycles, signoff: m.signoff,
	}
}

type corruption struct {
	name      string
	good, bad func() error
}

// corruptionCases computes one real output per check and a corrupted copy.
func corruptionCases(ctx context.Context, fx *fixture) ([]corruption, error) {
	var cases []corruption
	rng := rand.New(rand.NewSource(7))

	// Adder word: a flipped sum bit.
	mm, err := phlogic.CompileMacro(fx.adders[4], fx.nomPPV, fx.nomPPV.F0, phlogic.MacroConfig{})
	if err != nil {
		return nil, err
	}
	out, _, err := mm.RunWord(adderWord(4, 11, 6))
	if err != nil {
		return nil, err
	}
	flipped := append([]bool(nil), out...)
	flipped[2] = !flipped[2]
	cases = append(cases, corruption{"sum/flipped-bit",
		func() error { return checkSum(out, 4, 11, 6) },
		func() error { return checkSum(flipped, 4, 11, 6) }})

	// Characterisation: a shifted f0, a perturbed multiplier, a scaled PPV.
	ring, sol, p := fx.nomRing, fx.nomSol, fx.nomPPV
	per, err := transientPeriod(ctx, ring.Sys, sol.X0, ring.OutputIndex(), ring.Cfg.Vdd/2, sol.T0, 20)
	if err != nil {
		return nil, err
	}
	cases = append(cases, corruption{"f0/shifted",
		func() error { return checkF0(sol.F0, per) },
		func() error { return checkF0(sol.F0*1.02, per) }})
	off := *sol
	off.Multipliers = append([]complex128{1.01}, sol.Multipliers[1:]...)
	cases = append(cases, corruption{"floquet/moved",
		func() error { return checkFloquet(sol) },
		func() error { return checkFloquet(&off) }})
	scaled := *p
	scaled.VI = nil
	for _, v := range p.VI {
		w := v.Clone()
		w.Scale(1.3)
		scaled.VI = append(scaled.VI, w)
	}
	phases := []float64{0.1, 0.4, 0.7}
	node := ring.OutputIndex()
	cases = append(cases, corruption{"ppv/scaled",
		func() error { return checkPPVPulse(ctx, ring.Sys, sol, p, node, ring.Cfg.Vdd/2, phases) },
		func() error { return checkPPVPulse(ctx, ring.Sys, sol, &scaled, node, ring.Cfg.Vdd/2, phases) }})

	// Reopen: one state value off by one ulp.
	ulp := *sol
	ulp.States = append([]linalg.Vec(nil), sol.States...)
	ulp.States[5] = sol.States[5].Clone()
	ulp.States[5][0] = math.Nextafter(ulp.States[5][0], math.Inf(1))
	cases = append(cases, corruption{"reopen/one-ulp",
		func() error { return sameSolution(sol, sol) },
		func() error { return sameSolution(sol, &ulp) }})

	// Yield: a BER above 1.
	_, corners, err := variation.MonteCarloBatchEng(ctx, variation.NewEngine(1), ringosc.DefaultConfig(),
		variation.StandardParams(), 4, variation.PseudoSampler{Seed: 7}, 4, 1)
	if err != nil {
		return nil, err
	}
	bers, err := variation.CornerBERs(ctx, corners, studyD, berOptions(7))
	if err != nil {
		return nil, err
	}
	high := append([]noise.BERResult(nil), bers...)
	high[1].BER = 1.2
	cases = append(cases, corruption{"ber/above-one",
		func() error { return checkBERs(bers) },
		func() error { return checkBERs(high) }})
	rate := kramersRate(fx.nomModel, hopD)
	cases = append(cases, corruption{"kramers/tenfold",
		func() error { return checkKramers(int(math.Round(rate*64)), 64, rate) },
		func() error { return checkKramers(int(math.Round(10*rate*64)), 64, rate) }})

	// Unique netlist: a reordered truth-table row.
	table := make([][]bool, 8)
	for r := range table {
		table[r] = []bool{rng.Intn(2) == 1, rng.Intn(2) == 1}
	}
	table[3], table[5] = []bool{true, false}, []bool{false, true}
	n, err := phlogic.SynthesizeTruthTable("selftest", uniqueInputs, uniqueOutputs, table)
	if err != nil {
		return nil, err
	}
	um, err := phlogic.CompileMacro(n, fx.nomPPV, fx.nomPPV.F0, phlogic.MacroConfig{})
	if err != nil {
		return nil, err
	}
	bits, _, err := um.RunWord([]bool{true, true, false}) // row 3
	if err != nil {
		return nil, err
	}
	reordered := append([][]bool(nil), table...)
	reordered[3], reordered[5] = table[5], table[3]
	cases = append(cases, corruption{"table/reordered-row",
		func() error { return checkTableRow(bits, table, 3) },
		func() error { return checkTableRow(bits, reordered, 3) }})

	// Sweep: a band that narrows as the amplitude grows.
	amps := []float64{5e-6, 7.5e-6, 11.25e-6, 16.875e-6}
	sw, err := fx.eng.GAESweepBatch(ctx, []engine.GAESweepRequest{{Config: ringosc.DefaultConfig(), SyncNode: 0, SyncHarm: 2, Amps: amps}})
	if err != nil {
		return nil, err
	}
	var pts []bandPoint
	for _, pt := range sw[0].Points {
		pts = append(pts, bandPoint{amp: pt.Amp, lo: pt.F1Lo, hi: pt.F1Hi})
	}
	narrowing := append([]bandPoint(nil), pts...)
	narrowing[3].hi = narrowing[2].hi * 0.9
	cases = append(cases, corruption{"adler/narrowing",
		func() error { return checkAdler(pts) },
		func() error { return checkAdler(narrowing) }})

	// Coupled array: one node driven past the supply rail.
	a, err := ringosc.BuildArray(arrayRings)
	if err != nil {
		return nil, err
	}
	const arrayCycles = 4
	ares, err := transient.RunCtx(ctx, a.Sys, a.KickStart(), 0, arrayCycles*sol.T0,
		transient.Options{Method: transient.Trap, Step: sol.T0 / arraySPP})
	if err != nil {
		return nil, err
	}
	stage0 := make([]int, len(a.Stage))
	for r, st := range a.Stage {
		stage0[r] = int(st[0])
	}
	over := *ares
	over.X = append(over.X[:0:0], ares.X...)
	k := len(over.X) / 2
	over.X[k] = ares.X[k].Clone()
	over.X[k][7] = 1.2 * a.Cfg.Ring.Vdd
	cases = append(cases, corruption{"array/over-rail",
		func() error { return checkArray(ares, stage0, a.Sys.N, a.Cfg.Ring.Vdd, sol.T0, arrayCycles) },
		func() error { return checkArray(&over, stage0, a.Sys.N, a.Cfg.Ring.Vdd, sol.T0, arrayCycles) }})
	return cases, nil
}
