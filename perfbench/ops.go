package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/parallel"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/serve"
	"repro/internal/transient"
	"repro/internal/variation"
)

// mix is a workload: the operations of one round. Every run reports every
// end-to-end metric, so every workload runs every metric's class; its own
// classes (own) carry most of its CPU, and the others ride along at their
// smallest sizes (a 3-stage ring, a 2-bit word, a 2-period chain, one
// study) or at small counts. The audit prints each class's share of the
// timed CPU.
type mix struct {
	name        string
	own         []string                // the classes the workload is about
	charStages  []int                   // one cold characterisation (and its reopens) per entry
	words       []int                   // one transistor-level adder sign-off per entry (bits)
	arrays      []ringosc.ArrayTopology // one coupled-array transient per entry
	arrayCycles int                     // isolated-ring periods integrated per array run
	logic4      int                     // served words on the shared 4-bit adder
	logic8      int                     // served words on the shared 8-bit adder
	unique      int                     // served words on never-seen netlists
	sweeps      int                     // served locking sweeps
	ppvs        int                     // served warm /v1/ppv
	studies     int                     // full parametric BER yield studies (studySeeds[:studies])
	signoff     bool                    // the noise sign-off on fixed inputs (opSignoff)
}

var mixes = map[string]mix{
	"spice_signoff": {
		name: "spice_signoff", own: []string{"char", "reopen", "word", "array"},
		charStages: []int{3, 5, 7}, words: []int{2, 4, 6, 8},
		arrays: []ringosc.ArrayTopology{ringosc.Chain, ringosc.Grid}, arrayCycles: 4,
		logic4: 16, logic8: 8, unique: 8, sweeps: 8, ppvs: 16, studies: 1,
	},
	"serve_logic": {
		name: "serve_logic", own: []string{"logic", "logic_unique", "sweep", "ppv"},
		charStages: []int{3}, words: []int{2},
		arrays: []ringosc.ArrayTopology{ringosc.Chain}, arrayCycles: 2,
		logic4: 320, logic8: 160, unique: 160, sweeps: 160, ppvs: 320, studies: 1,
	},
	"yield_study": {
		name: "yield_study", own: []string{"study", "signoff"},
		charStages: []int{3}, words: []int{2},
		arrays: []ringosc.ArrayTopology{ringosc.Chain}, arrayCycles: 2,
		logic4: 16, logic8: 8, unique: 8, sweeps: 8, ppvs: 16, studies: 5, signoff: true,
	},
}

// Fixed shapes of the generated inputs.
const (
	reopensPerRound = 30  // split over the round's chars, each on a fresh engine: a reopen costs under a millisecond
	arrayRings      = 64  // 192 free nodes: above the sparse backend's threshold
	arraySPP        = 256 // trapezoidal steps per period
	sweepAmps       = 8   // SYNC amplitudes per sweep, geometric ×1.5
	ppvHarmonics    = 10  // harmonics per node asked of /v1/ppv
	studyCorners    = 16  // corners per yield study
	studyLanes      = 8   // corners per batched PSS solve (the CLI default)
	studyD          = 4.0 // Δφ diffusion, cycles²/s: yield lands strictly between 0 and 100 %
	berTarget       = 1e-2
	hopMembers      = 64  // members of the nominal hop-rate ensemble
	hopD            = 8.0 // its Δφ diffusion: ~1 barrier crossing per second
)

// The yield studies run on fixed inputs, the same in every round and every
// run: at D = 4 about one random 16-corner study in fifty has a corner whose
// BER exceeds 1 (a program fault, README), so seeded studies would fail on
// some seeds only. studySeeds are the first draws of math/rand seeded with
// 1; none of them shows the fault. faultStudySeed is a study where it
// shows (corner 11: 330 hops in 120 slots, BER 2.75); opSignoff runs it in
// every round of yield_study.
var studySeeds = []int64{
	5577006791947779410, 8674665223082153551, 6129484611666145821,
	4037200794235010051, 3916589616287113937,
}

const faultStudySeed = 5334926190883537077

// berOptions are the CLI's yield defaults (6 members, 20 slots of 50 ms)
// with every pool sized to one.
func berOptions(seed int64) noise.BEROptions {
	return noise.BEROptions{TBit: 0.05, Bits: 20, Members: 6, Dt: 1e-4, Seed: seed, Workers: 1}
}

// charDone is a finished cold characterisation, reopened later in the round.
type charDone struct {
	cfg ringosc.Config
	sol *pss.Solution
	p   *ppv.PPV
}

// runRound runs one round of the workload's operations, always in the same
// order, drawing every input from the seeded generator before the operation
// starts so that round k's inputs depend on the seed alone.
func (b *bench) runRound(ctx context.Context) {
	b.chars = b.chars[:0]
	for _, st := range b.mix.charStages {
		b.opChar(ctx, st)
	}
	for _, ch := range b.chars {
		for k := 0; k < reopensPerRound/len(b.chars); k++ {
			b.opReopen(ctx, ch)
		}
	}
	for _, bits := range b.mix.words {
		b.opWord(ctx, bits)
	}
	for _, topo := range b.mix.arrays {
		b.opArray(ctx, topo)
	}
	m := b.mix
	// Each phase of the round starts from a collected heap, so the garbage
	// of the previous phase's large transients is not collected, and
	// charged, inside the next phase's sub-millisecond requests.
	runtime.GC()
	// Warm rings are taken in turn from a seeded offset, so every round
	// asks for each the same number of times.
	off := b.rng.Intn(len(warmSpecs))
	for i := 0; i < max(m.logic4, m.logic8, m.unique, m.sweeps, m.ppvs); i++ {
		if i < m.logic4 {
			b.opLogic(ctx, 4)
		}
		if i < m.logic8 {
			b.opLogic(ctx, 8)
		}
		if i < m.unique {
			b.opUnique(ctx)
		}
		if i < m.sweeps {
			b.opSweep(ctx, (off+i)%len(warmSpecs))
		}
		if i < m.ppvs {
			b.opPPV(ctx, (off+i)%len(warmSpecs))
		}
	}
	runtime.GC()
	for _, seed := range studySeeds[:m.studies] {
		b.opStudy(ctx, seed)
	}
	if m.signoff {
		b.opSignoff(ctx)
	}
}

// opChar characterises a seeded ring variant cold: build → PSS → PPV on a
// fresh engine whose disk tier is the run's store.
func (b *bench) opChar(ctx context.Context, stages int) {
	cfg := ringosc.DefaultConfig()
	cfg.Stages = stages
	if b.rng.Intn(2) == 1 {
		cfg.NMOSMult = 2
	}
	cfg.CLoad *= 0.8 + 0.45*b.rng.Float64()
	cfg.Vdd *= 0.9 + 0.2*b.rng.Float64()
	deep := b.sampled(3)
	slot := len(b.chars)
	b.chars = append(b.chars, nil)
	b.op("char", func(c *class) error {
		eng := engine.New(engine.Options{Workers: 1, Disk: b.fx.store})
		octx, met := b.traceCtx(ctx)
		var ring *ringosc.Ring
		var sol *pss.Solution
		var p *ppv.PPV
		err := b.timed(c, func() (err error) {
			if b.traced {
				b.span("pss.shoot", func() { _, _, err = eng.RingPSS(octx, cfg) })
				if err != nil {
					return err
				}
				b.span("ppv.adjoint", func() { ring, sol, p, err = eng.RingPPV(octx, cfg) })
				return err
			}
			ring, sol, p, err = eng.RingPPV(octx, cfg)
			return err
		})
		b.tr.merge("char", met)
		if err != nil {
			return err
		}
		if err := checkFloquet(sol); err != nil {
			return err
		}
		if deep {
			per, err := transientPeriod(ctx, ring.Sys, sol.X0, ring.OutputIndex(), cfg.Vdd/2, sol.T0, 20)
			if err != nil {
				return err
			}
			if err := checkF0(sol.F0, per); err != nil {
				return err
			}
			if err := checkPPVPulse(ctx, ring.Sys, sol, p, ring.OutputIndex(), cfg.Vdd/2, []float64{0.1, 0.4, 0.7}); err != nil {
				return err
			}
		}
		b.chars[slot] = &charDone{cfg: cfg, sol: sol, p: p}
		if b.traced {
			b.tr.keepCircuit(ring.Sys, sol.X0, sol.T0/1024)
		}
		return nil
	})
}

// opReopen reopens a characterisation of this round from the disk store
// into a fresh engine and requires it bit-identical to the computed one.
func (b *bench) opReopen(ctx context.Context, ch *charDone) {
	b.op("reopen", func(c *class) error {
		if ch == nil {
			return errors.New("its characterisation failed: nothing to reopen")
		}
		eng := engine.New(engine.Options{Workers: 1, Disk: b.fx.store})
		var sol *pss.Solution
		var p *ppv.PPV
		err := b.timed(c, func() (err error) {
			_, sol, p, err = eng.RingPPV(ctx, ch.cfg)
			return err
		})
		if err != nil {
			return err
		}
		if st := eng.Stats(); st.DiskHits != 2 || st.DiskWrites != 0 {
			return fmt.Errorf("not served from disk: %+v", st)
		}
		if err := sameSolution(ch.sol, sol); err != nil {
			return err
		}
		if err := samePPV(ch.p, p); err != nil {
			return err
		}
		if b.traced {
			kPSS, kPPV := storeKeys(ch.cfg)
			const reads = 4
			var gerr error
			read := cpuSpan(func() {
				for i := 0; i < reads && gerr == nil; i++ {
					if _, gerr = b.fx.store.Get(kPSS); gerr == nil {
						_, gerr = b.fx.store.Get(kPPV)
					}
				}
			}) / reads
			if gerr != nil {
				return gerr
			}
			b.tr.add("engine.disk_read", read)
			b.tr.add("engine.decode", c.pending.cpu-read)
		}
		return nil
	})
}

// adderWord lays out a + b as the adder's inputs a0, b0, a1, b1, … (LSB first).
func adderWord(bits, a, b int) []bool {
	w := make([]bool, 2*bits)
	for i := 0; i < bits; i++ {
		w[2*i] = a&(1<<i) != 0
		w[2*i+1] = b&(1<<i) != 0
	}
	return w
}

// opWord signs off one random adder word at transistor level: lower the
// shared netlist, integrate half a clock period, decode.
func (b *bench) opWord(ctx context.Context, bits int) {
	a, bb := b.rng.Intn(1<<bits), b.rng.Intn(1<<bits)
	word := adderWord(bits, a, bb)
	streams := make([][]bool, len(word))
	for i, v := range word {
		streams[i] = []bool{v}
	}
	b.op("word", func(c *class) error {
		octx, met := b.traceCtx(ctx)
		var lc *phlogic.LogicCircuit
		var out []bool
		err := b.timed(c, func() (err error) {
			b.span("phlogic.lower", func() { lc, err = phlogic.LowerCircuit(b.fx.adders[bits], streams, b.fx.circCfg) })
			if err != nil {
				return err
			}
			var res *transient.Result
			b.span("transient.word_run", func() { res, err = lc.Run(octx, b.fx.nomSol, nil, 0.5) })
			if err != nil {
				return err
			}
			b.span("phlogic.decode", func() { out, err = lc.DecodePeriod(res, 0) })
			return err
		})
		b.tr.merge("word", met)
		if err != nil {
			return err
		}
		c.pending.work = 0.5 * lc.Cfg.ClockCycles // reference cycles simulated
		if err := checkSum(out, bits, a, bb); err != nil {
			return err
		}
		if b.traced {
			b.tr.keepCircuit(lc.Sys, lc.InitialState(b.fx.nomSol, nil), 1/lc.Cfg.F1/256)
			return b.sameWordMacro(bits, word, a, bb, c.pending.cpu)
		}
		return nil
	})
}

// sameWordMacro (traced rounds) runs the word just signed off at
// transistor level through the phase macromodel — compile and run, as the
// service does — for the paper's efficiency comparison on this substrate.
func (b *bench) sameWordMacro(bits int, word []bool, a, bb int, spiceCPU float64) error {
	var out []bool
	var err error
	cpu := cpuSpan(func() {
		var mm *phlogic.MacroMachine
		if mm, err = phlogic.CompileMacro(b.fx.adders[bits], b.fx.nomPPV, b.fx.nomPPV.F0, phlogic.MacroConfig{}); err == nil {
			out, _, err = mm.RunWord(word)
		}
	})
	if err != nil {
		return fmt.Errorf("macromodel of the same word: %w", err)
	}
	if err := checkSum(out, bits, a, bb); err != nil {
		return fmt.Errorf("macromodel of the same word: %w", err)
	}
	b.tr.count(fmt.Sprintf("efficiency.spice.%d", bits), spiceCPU)
	b.tr.count(fmt.Sprintf("efficiency.macro.%d", bits), cpu)
	return nil
}

// opArray integrates a coupled array of default rings from its kick start.
func (b *bench) opArray(ctx context.Context, topo ringosc.ArrayTopology) {
	rc := 200e3 + 200e3*b.rng.Float64()
	b.op("array", func(c *class) error {
		a, err := ringosc.BuildArrayConfig(ringosc.ArrayConfig{Rings: arrayRings, Topology: topo, RCouple: rc})
		if err != nil {
			return err
		}
		T := b.fx.nomSol.T0
		octx, met := b.traceCtx(ctx)
		var res *transient.Result
		err = b.timed(c, func() (err error) {
			res, err = transient.RunCtx(octx, a.Sys, a.KickStart(), 0, float64(b.mix.arrayCycles)*T,
				transient.Options{Method: transient.Trap, Step: T / arraySPP})
			return err
		})
		b.tr.merge("array", met)
		if err != nil {
			return err
		}
		c.pending.work = float64(res.Steps)
		stage0 := make([]int, len(a.Stage))
		for r, st := range a.Stage {
			stage0[r] = int(st[0])
		}
		if err := checkArray(res, stage0, a.Sys.N, a.Cfg.Ring.Vdd, T, b.mix.arrayCycles); err != nil {
			return err
		}
		if b.traced {
			b.tr.keepArray(a.Sys, a.KickStart(), T/arraySPP)
		}
		return nil
	})
}

// served wraps one request of the closed loop: the engine's counters are
// read around it for the hit ratio of the traced run.
func (b *bench) served(c *class, call func() error) error {
	var before engine.Stats
	if b.traced {
		before = b.fx.eng.Stats()
	}
	err := b.timed(c, call)
	if b.traced {
		b.tr.engineDelta(before, b.fx.eng.Stats())
	}
	return err
}

// opLogic serves one random word on a shared adder netlist.
func (b *bench) opLogic(ctx context.Context, bits int) {
	a, bb := b.rng.Intn(1<<bits), b.rng.Intn(1<<bits)
	word := adderWord(bits, a, bb)
	b.op("logic", func(c *class) error {
		req := serve.LogicRunRequest{Netlist: b.fx.adderJS[bits], Word: word}
		var resp *serve.LogicRunResponse
		err := b.served(c, func() (err error) { resp, err = b.fx.client.LogicRun(ctx, req); return err })
		if err != nil {
			return err
		}
		if resp.Cold {
			return errors.New("shared-netlist request ran cold")
		}
		if err := checkSum(resp.Bits, bits, a, bb); err != nil {
			return err
		}
		return b.replayLogic(ctx, req, c.pending.cpu)
	})
}

// uniqueInputs is the shape of the never-seen netlists' truth tables.
var uniqueInputs, uniqueOutputs = []string{"x0", "x1", "x2"}, []string{"y0", "y1"}

// opUnique serves one word on a netlist synthesised from a fresh random
// truth table (so the service has never seen it).
func (b *bench) opUnique(ctx context.Context) {
	table := make([][]bool, 1<<len(uniqueInputs))
	for r := range table {
		table[r] = make([]bool, len(uniqueOutputs))
		for o := range table[r] {
			table[r][o] = b.rng.Intn(2) == 1
		}
	}
	row := b.rng.Intn(len(table))
	b.nUniq++
	name := fmt.Sprintf("uniq_%d_%d", b.seed, b.nUniq)
	b.op("logic_unique", func(c *class) error {
		n, err := phlogic.SynthesizeTruthTable(name, uniqueInputs, uniqueOutputs, table)
		if err != nil {
			return err
		}
		js, err := n.JSON()
		if err != nil {
			return err
		}
		word := make([]bool, len(uniqueInputs))
		for j := range word {
			word[j] = row&(1<<j) != 0
		}
		req := serve.LogicRunRequest{Netlist: js, Word: word}
		var resp *serve.LogicRunResponse
		err = b.served(c, func() (err error) { resp, err = b.fx.client.LogicRun(ctx, req); return err })
		if err != nil {
			return err
		}
		if err := checkTableRow(resp.Bits, table, row); err != nil {
			return err
		}
		return b.replayLogic(ctx, req, c.pending.cpu)
	})
}

// replayLogic (traced rounds) repeats a logic request's work in process —
// parse, cached PPV, compile, run — to split its cost by layer.
func (b *bench) replayLogic(ctx context.Context, req serve.LogicRunRequest, httpCPU float64) error {
	if !b.traced {
		return nil
	}
	var n *phlogic.Netlist
	var mm *phlogic.MacroMachine
	var steps int
	var err error
	var compile, run float64
	total := cpuSpan(func() {
		if n, err = phlogic.ParseNetlistJSON(req.Netlist); err != nil {
			return
		}
		var p *ppv.PPV
		if _, _, p, err = b.fx.eng.RingPPV(ctx, ringosc.DefaultConfig()); err != nil {
			return
		}
		compile = cpuSpan(func() { mm, err = phlogic.CompileMacro(n, p, p.F0, phlogic.MacroConfig{}) })
		if err != nil {
			return
		}
		var res *phasemacro.Result
		run = cpuSpan(func() { _, res, err = mm.RunWord(req.Word) })
		if err == nil {
			steps = res.Steps
		}
	})
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}
	b.tr.add("phlogic.compile", compile)
	b.tr.add("phasemacro.run", run)
	b.tr.count("phasemacro.latch_steps", float64(steps*mm.NumLatches()))
	b.tr.add("serve.http", httpCPU-total)
	return nil
}

// opSweep serves one SYNC-amplitude locking sweep on a warm ring.
func (b *bench) opSweep(ctx context.Context, wi int) {
	a0 := 4e-6 + 4e-6*b.rng.Float64()
	amps := make([]float64, sweepAmps)
	for i := range amps {
		amps[i] = a0 * math.Pow(1.5, float64(i))
	}
	b.op("sweep", func(c *class) error {
		req := serve.SweepRequest{Ring: warmSpecs[wi], SyncNode: 0, SyncHarm: 2, Amps: amps}
		var resp *serve.SweepResponse
		err := b.served(c, func() (err error) { resp, err = b.fx.client.GAESweep(ctx, req); return err })
		if err != nil {
			return err
		}
		if resp.Cold {
			return errors.New("sweep on a warm ring ran cold")
		}
		pts := make([]bandPoint, len(resp.Points))
		for i, p := range resp.Points {
			pts[i] = bandPoint{amp: p.Amp, lo: p.F1Lo, hi: p.F1Hi}
		}
		if err := checkAdler(pts); err != nil {
			return err
		}
		if b.traced {
			cfg, err := req.Ring.Config()
			if err != nil {
				return err
			}
			in := cpuSpan(func() {
				_, err = b.fx.eng.GAESweepBatch(ctx, []engine.GAESweepRequest{{Config: cfg, SyncNode: 0, SyncHarm: 2, Amps: amps}})
			})
			if err != nil {
				return err
			}
			b.tr.add("gae.sweep_inproc", in)
			b.tr.add("serve.http", c.pending.cpu-in)
		}
		return nil
	})
}

// opPPV serves one warm /v1/ppv and requires it to equal the engine's own
// artifact exactly.
func (b *bench) opPPV(ctx context.Context, wi int) {
	const harm = ppvHarmonics
	b.op("ppv", func(c *class) error {
		var resp *serve.PPVResponse
		err := b.served(c, func() (err error) {
			resp, err = b.fx.client.PPV(ctx, serve.PPVRequest{Ring: warmSpecs[wi], Harmonics: harm})
			return err
		})
		if err != nil {
			return err
		}
		p := b.fx.warm[wi]
		if resp.Cold || resp.F0 != p.F0 || len(resp.Nodes) != len(p.NodeSeries) {
			return fmt.Errorf("warm PPV: cold=%v f0 %g (engine %g), %d nodes (engine %d)",
				resp.Cold, resp.F0, p.F0, len(resp.Nodes), len(p.NodeSeries))
		}
		for n, hs := range resp.Nodes {
			if len(hs) != harm {
				return fmt.Errorf("node %d: %d harmonics, asked for %d", n, len(hs), harm)
			}
			for _, h := range hs {
				if want := cmplx.Abs(p.Harmonic(n, h.Harmonic)); h.Magnitude != want {
					return fmt.Errorf("node %d harmonic %d: |V| %g, engine %g", n, h.Harmonic, h.Magnitude, want)
				}
			}
		}
		if b.traced {
			cfg, err := warmSpecs[wi].Config()
			if err != nil {
				return err
			}
			// The handler's work without the wire: cached PPV, then the
			// harmonic table it serialises.
			var table [][]serve.PPVHarmonic
			in := cpuSpan(func() {
				var p *ppv.PPV
				if _, _, p, err = b.fx.eng.RingPPV(ctx, cfg); err != nil {
					return
				}
				table = make([][]serve.PPVHarmonic, len(p.NodeSeries))
				for n := range p.NodeSeries {
					for h := 1; h <= harm; h++ {
						v := p.Harmonic(n, h)
						table[n] = append(table[n], serve.PPVHarmonic{Harmonic: h, Magnitude: cmplx.Abs(v), Phase: cmplx.Phase(v) / (2 * math.Pi)})
					}
				}
			})
			if len(table) != len(resp.Nodes) {
				return fmt.Errorf("in-process replay: %d nodes, served %d", len(table), len(resp.Nodes))
			}
			if err != nil {
				return err
			}
			b.tr.add("serve.http", c.pending.cpu-in)
		}
		return nil
	})
}

// opStudy runs one parametric BER yield study the way `phlogon-char yield`
// does: batched corners on a fresh variation engine, then the per-corner
// hop-counting ensembles.
func (b *bench) opStudy(ctx context.Context, seed int64) {
	pick := b.rng.Intn(studyCorners)
	deep := b.sampled(2)
	b.op("study", func(c *class) error {
		base := ringosc.DefaultConfig()
		params := variation.StandardParams()
		cctx, cmet := b.traceCtx(ctx)
		bctx, bmet := b.traceCtx(ctx)
		var samples []variation.Sample
		var corners []variation.CornerResult
		var bers []noise.BERResult
		err := b.timed(c, func() (err error) {
			veng := variation.NewEngine(1)
			b.span("variation.corners", func() {
				samples, corners, err = variation.MonteCarloBatchEng(cctx, veng, base, params, studyCorners,
					variation.PseudoSampler{Seed: seed}, studyLanes, 1)
			})
			if err != nil {
				return err
			}
			b.span("noise.ber", func() { bers, err = variation.CornerBERs(bctx, corners, studyD, berOptions(seed)) })
			return err
		})
		b.tr.merge("corners", cmet)
		b.tr.merge("ber", bmet)
		if err != nil {
			return err
		}
		if err := b.checkStudyBERs(bers); err != nil {
			return err
		}
		if deep {
			return checkCorner(ctx, corners[pick], samples[pick], bers[pick], parallel.SubSeed(seed, pick), base, params)
		}
		return nil
	})
}

// checkStudyBERs requires every corner BER of a study to be a probability
// and records the study's yield and out-of-range corners for the audit.
func (b *bench) checkStudyBERs(bers []noise.BERResult) error {
	vals := make([]float64, len(bers))
	for i, r := range bers {
		vals[i] = r.BER
		if r.BER > 1 {
			b.berAboveOne++
		}
	}
	b.corners += len(bers)
	b.yields = append(b.yields, noise.Yield(vals, berTarget))
	return checkBERs(bers)
}

// checkCorner holds one corner of a study against three references: zero
// noise gives zero hops; the ensemble rerun at lane width 1 gives the same
// hop count; a cold scalar characterisation of the corner's configuration
// gives the same figures of merit.
func checkCorner(ctx context.Context, cr variation.CornerResult, smp variation.Sample, ber noise.BERResult, seed int64, base ringosc.Config, params []variation.Param) error {
	opt := berOptions(seed)
	quiet, err := noise.EstimateBER(ctx, cr.Model, 0, opt)
	if err != nil {
		return err
	}
	if quiet.Hops != 0 {
		return fmt.Errorf("zero noise gave %d hops", quiet.Hops)
	}
	opt.Lanes = 1
	narrow, err := noise.EstimateBER(ctx, cr.Model, studyD, opt)
	if err != nil {
		return err
	}
	if narrow.Hops != ber.Hops {
		return fmt.Errorf("lane width 1 gave %d hops, the batched study %d", narrow.Hops, ber.Hops)
	}
	cfg := base
	for j, prm := range params {
		prm.Apply(&cfg, smp.Deltas[j])
	}
	cold, err := variation.EvaluateEng(ctx, variation.NewEngine(1), cfg)
	if err != nil {
		return err
	}
	got := cr.Metrics
	if !relClose(got.F0, cold.F0, tolCornerF0) || !relClose(got.V1, cold.V1, tolCornerV) ||
		!relClose(got.V2, cold.V2, tolCornerV) || !relClose(got.LockWidth, cold.LockWidth, tolCornerV) {
		return fmt.Errorf("batched corner %+v, cold scalar %+v", got, cold)
	}
	return nil
}

// opSignoff signs off the noise layer on fixed inputs, the same in every
// round and run: the yield study faultStudySeed must give every corner a
// BER in [0, 1], and the nominal corner's latch ensemble (fixed seed) must
// hop at the Kramers escape rate. Both checks fail on this program (README,
// "Program faults"); the operation is declared to fail with them, so the
// failed share is one operation per round whatever the seed.
func (b *bench) opSignoff(ctx context.Context) {
	b.cls("signoff").faults = []error{errBERRange, errHopRate}
	b.op("signoff", func(c *class) error {
		var bers []noise.BERResult
		var hops noise.BERResult
		opt := berOptions(1)
		opt.Members = hopMembers
		err := b.timed(c, func() error {
			_, corners, err := variation.MonteCarloBatchEng(ctx, variation.NewEngine(1), ringosc.DefaultConfig(),
				variation.StandardParams(), studyCorners, variation.PseudoSampler{Seed: faultStudySeed}, studyLanes, 1)
			if err != nil {
				return err
			}
			if bers, err = variation.CornerBERs(ctx, corners, studyD, berOptions(faultStudySeed)); err != nil {
				return err
			}
			hops, err = noise.EstimateBER(ctx, b.fx.nomModel, hopD, opt)
			return err
		})
		if err != nil {
			return err
		}
		return errors.Join(b.checkStudyBERs(bers),
			checkKramers(hops.Hops, float64(opt.Members)*opt.TBit*float64(opt.Bits), kramersRate(b.fx.nomModel, hopD)))
	})
}
