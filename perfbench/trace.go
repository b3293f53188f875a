package main

import (
	"context"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/noise"
)

// tracer accumulates the per-layer figures of a traced run: CPU spans the
// benchmark opens around public calls, the program's own diag counters per
// operation class, engine cache counters around served requests, and the
// circuits the unit costs are timed on.
type tracer struct {
	spans  map[string]*acc
	counts map[string]float64
	groups map[string]*diag.Metrics
	ops    map[string]int
	cache  engine.Stats // summed deltas over served requests

	dense []unitCircuit // rings and lowered adders of the traced rounds
	array *unitCircuit
}

type acc struct {
	cpu float64 // raw seconds
	n   int
}

// unitCircuit is a circuit with a representative state and the step its
// integrator uses.
type unitCircuit struct {
	sys *circuit.System
	x   linalg.Vec
	h   float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*acc{}, counts: map[string]float64{},
		groups: map[string]*diag.Metrics{}, ops: map[string]int{}}
}

// traceCtx attaches a fresh diag.Metrics in traced rounds.
func (b *bench) traceCtx(ctx context.Context) (context.Context, *diag.Metrics) {
	if !b.traced {
		return ctx, nil
	}
	m := diag.New()
	return diag.WithMetrics(ctx, m), m
}

// span runs f; in traced rounds it adds f's CPU time to the named span.
func (b *bench) span(name string, f func()) {
	if !b.traced {
		f()
		return
	}
	b.tr.add(name, cpuSpan(f))
}

func (t *tracer) add(name string, cpu float64) {
	a := t.spans[name]
	if a == nil {
		a = &acc{}
		t.spans[name] = a
	}
	a.cpu += cpu
	a.n++
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// merge folds one operation's counters into its class group.
func (t *tracer) merge(group string, m *diag.Metrics) {
	if t == nil || m == nil {
		return
	}
	g := t.groups[group]
	if g == nil {
		g = diag.New()
		t.groups[group] = g
	}
	g.Merge(m)
	t.ops[group]++
}

func (t *tracer) engineDelta(before, after engine.Stats) {
	t.cache.Hits += after.Hits - before.Hits
	t.cache.Misses += after.Misses - before.Misses
	t.cache.Coalesced += after.Coalesced - before.Coalesced
}

func (t *tracer) keepCircuit(sys *circuit.System, x linalg.Vec, h float64) {
	t.dense = append(t.dense, unitCircuit{sys: sys, x: x.Clone(), h: h})
}

func (t *tracer) keepArray(sys *circuit.System, x linalg.Vec, h float64) {
	t.array = &unitCircuit{sys: sys, x: x.Clone(), h: h}
}

// get reads counter c of a group (0 when the group never ran).
func (t *tracer) get(group string, c diag.Counter) float64 {
	return float64(t.groups[group].Get(c))
}

// meanSpan is the named span's mean raw CPU seconds per call.
func (t *tracer) meanSpan(name string) float64 {
	a := t.spans[name]
	if a == nil {
		return 0
	}
	return ratio(a.cpu, float64(a.n))
}

// calls is how often the named span ran.
func (t *tracer) calls(name string) int {
	if a := t.spans[name]; a != nil {
		return a.n
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	return a / b
}

// unitReps is how many times each unit cost is repeated per circuit.
const unitReps = 200

// corrector returns the trapezoidal corrector matrix 2C/h − J at x.
func (u unitCircuit) corrector() (linalg.Vec, *linalg.Mat) {
	n := u.sys.N
	f, j := linalg.NewVec(n), linalg.NewMat(n, n)
	u.sys.NewWorkspace().EvalFJ(u.x, 0, f, j)
	a := u.sys.C.Clone()
	a.Scale(2 / u.h)
	a.AddScaled(-1, j)
	return f, a
}

// unitCosts times EvalFJ and dense LU factor+solve on the traced rounds'
// own rings and lowered adders, and the sparse numeric refactor+solve on the
// array's corrector pattern (raw seconds per call).
func (t *tracer) unitCosts() (evalFJ, lu, sparseLU float64) {
	var evalCPU, luCPU float64
	for _, u := range t.dense {
		n := u.sys.N
		ws := u.sys.NewWorkspace()
		f, j := linalg.NewVec(n), linalg.NewMat(n, n)
		evalCPU += cpuSpan(func() {
			for r := 0; r < unitReps; r++ {
				ws.EvalFJ(u.x, 0, f, j)
			}
		})
		rhs, a := u.corrector()
		var fac linalg.LU
		dst := linalg.NewVec(n)
		if fac.FactorizeInto(a) != nil {
			continue
		}
		luCPU += cpuSpan(func() {
			for r := 0; r < unitReps; r++ {
				fac.FactorizeInto(a)
				fac.SolveInto(dst, rhs)
			}
		})
	}
	if k := float64(len(t.dense) * unitReps); k > 0 {
		evalFJ, lu = evalCPU/k, luCPU/k
	}
	if t.array != nil {
		rhs, a := t.array.corrector()
		csc := sparse.FromDense(a)
		fac, err := sparse.Factorize(csc)
		if err == nil {
			dst := linalg.NewVec(t.array.sys.N)
			sparseLU = cpuSpan(func() {
				for r := 0; r < unitReps; r++ {
					fac.FactorizeInto(csc)
					fac.SolveInto(dst, rhs)
				}
			}) / unitReps
		}
	}
	return evalFJ, lu, sparseLU
}

// overhead is the tracing overhead: the timed CPU of a round made of every
// class's median traced operation over that of its median untraced one,
// minus one (medians keep the first round's warm-up out of it).
func (b *bench) overhead() float64 {
	var cost [2]float64
	for _, c := range b.classes {
		var xs [2][]float64
		for _, s := range c.samples {
			k := 0
			if s.traced {
				k = 1
			}
			xs[k] = append(xs[k], s.cpu)
		}
		if len(xs[0]) == 0 || len(xs[1]) == 0 {
			continue
		}
		w := float64(len(c.samples))
		cost[0] += w * median(xs[0])
		cost[1] += w * median(xs[1])
	}
	return ratio(cost[1], cost[0]) - 1
}

// finish writes every per-layer metric.
func (t *tracer) finish(b *bench, scale float64, out map[string]metric) {
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	ms := func(span string) float64 { return 1e3 * scale * t.meanSpan(span) }
	us := func(span string) float64 { return 1e6 * scale * t.meanSpan(span) }
	perOp := func(group string, c diag.Counter) float64 { return ratio(t.get(group, c), float64(t.ops[group])) }

	put("pss.shoot_ms", "ms", ms("pss.shoot"))
	put("ppv.adjoint_ms", "ms", ms("ppv.adjoint"))
	put("solver.newton_iters_per_char", "count", perOp("char", diag.NewtonIterations))
	put("transient.steps_per_char", "count", perOp("char", diag.TransientSteps))
	put("circuit.evals_per_char", "count", perOp("char", diag.CircuitEvals))
	put("linalg.lu_factors_per_char", "count", perOp("char", diag.LUFactorizations))
	evalFJ, lu, sparseLU := t.unitCosts()
	put("device.evalfj_us", "us", 1e6*scale*evalFJ)
	put("linalg.lu_us", "us", 1e6*scale*lu)
	put("linalg.sparse_refactor_us", "us", 1e6*scale*sparseLU)
	put("linalg.sparse_refactors_per_step", "count",
		ratio(t.get("array", diag.SparseRefactors), t.get("array", diag.TransientSteps)))
	put("solver.newton_iters_per_step", "count",
		ratio(t.get("array", diag.NewtonIterations)+t.get("word", diag.NewtonIterations),
			t.get("array", diag.TransientSteps)+t.get("word", diag.TransientSteps)))
	put("linalg.lu_reuse_ratio", "ratio",
		ratio(t.get("word", diag.LUFactorizationsReused), t.get("word", diag.LUFactorizations)))
	put("phlogic.lower_ms", "ms", ms("phlogic.lower"))
	put("transient.word_run_ms", "ms", ms("transient.word_run"))
	put("phlogic.decode_ms", "ms", ms("phlogic.decode"))
	put("engine.disk_read_us", "us", us("engine.disk_read"))
	put("engine.decode_us", "us", us("engine.decode"))
	put("serve.http_ms", "ms", ms("serve.http"))
	put("phlogic.compile_ms", "ms", ms("phlogic.compile"))
	put("phasemacro.run_ms", "ms", ms("phasemacro.run"))
	put("phasemacro.latch_steps_per_word", "count",
		ratio(t.counts["phasemacro.latch_steps"], float64(t.calls("phasemacro.run"))))
	put("gae.sweep_inproc_ms", "ms", ms("gae.sweep_inproc"))
	put("engine.hit_ratio", "ratio", ratio(float64(t.cache.Hits), float64(t.cache.Hits+t.cache.Misses+t.cache.Coalesced)))
	put("variation.corners_ms", "ms", ms("variation.corners"))
	put("noise.ber_ms", "ms", ms("noise.ber"))
	put("pss.batch_lane_occupancy", "ratio",
		ratio(t.get("corners", diag.BatchLaneEvals), t.get("corners", diag.BatchEvals)*studyLanes))
	put("noise.lane_occupancy", "ratio",
		ratio(t.get("ber", diag.StochBatchLaneSteps), t.get("ber", diag.StochBatchSteps)*noise.DefaultEnsembleLanes))
	put("noise.lane_steps_per_s", "1/s",
		ratio(t.get("ber", diag.StochBatchLaneSteps), scale*t.meanSpan("noise.ber")*float64(t.calls("noise.ber"))))
	put("solver.newton_iters_per_corner", "count",
		ratio(t.get("corners", diag.NewtonIterations), float64(t.ops["corners"]*studyCorners)))
	put("gae.compiles_per_study", "count", perOp("ber", diag.CompiledGCompiles))
	put("noise.ber_above_one_share", "ratio", ratio(float64(b.berAboveOne), float64(b.corners)))
	put("trace.overhead_ratio", "ratio", b.overhead())
}
