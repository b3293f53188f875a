// Command perfbench is the repository's benchmark: it runs one named
// workload of the oscillator design flow for a fixed time, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its standard output.
//
//	bash perfbench/run.sh --workload spice_signoff --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selftest
//
// Every time metric is process CPU time scaled to the nominal speed of the
// reference kernel (refkernel.go); see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: spice_signoff, serve_logic or yield_study")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "how long the measured loop runs, in wall-clock seconds")
	trace := flag.Int("trace", 0, "1: traced run that reports the per-layer metrics")
	selftest := flag.Bool("selftest", false, "run every workload at tiny scale and prove each check rejects a corrupted output")
	flag.Parse()

	// One process, at most two busy threads: every pool below is sized to 1,
	// the HTTP client and server hand the one CPU-bound request back and
	// forth, and the collector shares the second thread.
	runtime.GOMAXPROCS(2)

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest: ok")
		return
	}
	mx, ok := mixes[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	b := newBench(*seed, *trace == 1, mx)
	res, err := b.run(context.Background(), time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range mixes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one successful operation.
type sample struct {
	cpu, wall float64 // raw seconds
	scaled    float64 // cpu at the reference speed (set after the run)
	start     time.Time
	round     int
	traced    bool
	work      float64 // class-specific work done (simulated cycles, steps)
}

// class is one homogeneous kind of operation.
type class struct {
	name              string
	samples           []sample
	attempted, failed int
	// faults are the errors of known program faults that the class's
	// operations are declared to fail with (README, "Program faults");
	// faulted counts the failures that match one of them.
	faults   []error
	faulted  int
	cpu      float64 // raw CPU of every timed region, failed operations too
	pending  *sample
	firstErr error
}

// expected reports whether err is one of the class's declared faults.
func (c *class) expected(err error) bool {
	for _, f := range c.faults {
		if errors.Is(err, f) {
			return true
		}
	}
	return false
}

// bench is one run.
type bench struct {
	seed    int64
	rng     *rand.Rand
	mix     mix
	tracing bool
	ref     *refMeter
	fx      *fixture
	classes []*class
	byName  map[string]*class

	round  int
	traced bool        // the current round is traced
	tr     *tracer     // per-layer accumulators (tracing runs only)
	chars  []*charDone // this round's characterisations (nil where one failed)
	nUniq  int
	yields []float64 // parametric yield of every study, for the audit
	// deepAll runs the sampled (expensive) checks on every operation.
	deepAll bool
	// corners counts the corner BERs the studies (and the sign-off)
	// produced, berAboveOne those above 1.
	corners, berAboveOne int
}

func newBench(seed int64, tracing bool, mx mix) *bench {
	b := &bench{
		seed: seed, rng: rand.New(rand.NewSource(seed)), mix: mx, tracing: tracing,
		ref: newRefMeter(100 * time.Millisecond), byName: map[string]*class{},
	}
	if tracing {
		b.tr = newTracer()
	}
	return b
}

// cls returns the named class, creating it on first use.
func (b *bench) cls(name string) *class {
	c := b.byName[name]
	if c == nil {
		c = &class{name: name}
		b.byName[name] = c
		b.classes = append(b.classes, c)
	}
	return c
}

// op runs one operation of class name: f performs it, calling timed exactly
// once around the measured region, then checks the outputs. A returned
// error counts the operation as failed and drops its timing.
func (b *bench) op(name string, f func(c *class) error) {
	c := b.cls(name)
	c.attempted++
	c.pending = nil
	err := f(c)
	if c.pending != nil {
		c.cpu += c.pending.cpu
	} else if err == nil {
		err = fmt.Errorf("operation recorded no timing")
	}
	if err != nil {
		c.failed++
		if c.expected(err) {
			c.faulted++
		}
		if c.firstErr == nil {
			c.firstErr = err
			fmt.Fprintf(os.Stderr, "perfbench: %s failed (round %d): %v\n", name, b.round, err)
		}
		return
	}
	c.samples = append(c.samples, *c.pending)
}

// timed measures f's process CPU and wall time. The reference kernel is
// sampled before the region, never inside it.
func (b *bench) timed(c *class, f func() error) error {
	b.ref.maybeSample()
	w0, c0 := time.Now(), cpuNow()
	err := f()
	c1, w1 := cpuNow(), time.Now()
	c.pending = &sample{cpu: (c1 - c0).Seconds(), wall: w1.Sub(w0).Seconds(), start: w0, round: b.round, traced: b.traced}
	return err
}

// sampled draws whether this operation gets the expensive checks (one in
// n, seeded); the draw happens even when deepAll forces them, so the input
// sequence does not change.
func (b *bench) sampled(n int) bool { return b.rng.Intn(n) == 0 || b.deepAll }

// cpuSpan measures f's process CPU time in seconds (for traced spans and
// unit costs, which are outside the gated regions).
func cpuSpan(f func()) float64 {
	c0 := cpuNow()
	f()
	return (cpuNow() - c0).Seconds()
}

// run sets up, loops whole rounds until the deadline, and reports.
func (b *bench) run(ctx context.Context, length time.Duration) (*result, error) {
	b.ref.sample()
	setup, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer b.fx.close()
	start := time.Now()
	minRounds := 1
	if b.tracing {
		minRounds = 2 // the overhead compares untraced with traced rounds
	}
	for b.round = 0; b.round < minRounds || time.Since(start) < length; b.round++ {
		b.traced = b.tracing && b.round%2 == 1
		b.runRound(ctx)
	}
	b.ref.sample()
	for _, c := range append(b.classes, setup) {
		for i := range c.samples {
			c.samples[i].scaled = c.samples[i].cpu * b.ref.scaleAt(c.samples[i].start)
		}
	}
	return b.report(setup), nil
}

// setupRepeats is how often the set-up is built; setup_s is the median.
const setupRepeats = 5

// setup builds the fixture setupRepeats times from nothing and keeps the
// last, timing each build.
func (b *bench) setup(ctx context.Context) (*class, error) {
	c := &class{name: "setup"}
	for i := 0; i < setupRepeats; i++ {
		if b.fx != nil {
			b.fx.close()
			b.fx = nil
		}
		err := b.timed(c, func() (err error) {
			b.fx, err = newFixture(ctx)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		c.samples = append(c.samples, *c.pending)
		b.ref.sample()
	}
	return c, nil
}

// report folds the samples into the metrics and prints the audit lines.
func (b *bench) report(setup *class) *result {
	scale := b.ref.scale()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, c := range b.classes {
		res.Attempted += c.attempted
		res.Failed += c.failed
		// Every failure that no declared program fault explains makes the
		// run incorrect: a metric computed from the surviving operations
		// alone would hide it. So does a class with no correct operation
		// to measure.
		if c.failed > c.faulted || (len(c.faults) == 0 && len(c.samples) == 0) {
			res.Correct = false
		}
	}
	b.printAudit(scale, setup)
	if b.tracing {
		b.tr.finish(b, scale, res.Metrics)
		return res
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(values(setup, scaled)))
	put("peak_rss_mb", "MiB", peakRSSMiB())
	put("char_ms", "ms", 1e3*roundMedian(b.cls("char"), mean))
	// A reopen costs under a millisecond, so one that a collector cycle
	// lands on would move a mean: the round's median is taken instead.
	put("reopen_ms", "ms", 1e3*roundMedian(b.cls("reopen"), median))
	put("spice_cycles_per_s", "1/s", throughput(b.cls("word")))
	put("array_steps_per_s", "1/s", throughput(b.cls("array")))
	logic := values(b.cls("logic"), scaled)
	put("logic_ms", "ms", 1e3*median(logic))
	put("logic_p90_ms", "ms", 1e3*quantile(logic, 0.9))
	put("logic_unique_ms", "ms", 1e3*median(values(b.cls("logic_unique"), scaled)))
	put("sweep_ms", "ms", 1e3*median(values(b.cls("sweep"), scaled)))
	put("ppv_warm_ms", "ms", 1e3*median(values(b.cls("ppv"), scaled)))
	put("study_s", "s", median(values(b.cls("study"), scaled)))
	return res
}

// values reads one field of every sample of a class.
func values(c *class, f func(sample) float64) []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		out[i] = f(s)
	}
	return out
}

func rawCPU(s sample) float64 { return s.cpu }
func scaled(s sample) float64 { return s.scaled }
func wall(s sample) float64   { return s.wall }

// roundMedian is the median over rounds of agg over the round's scaled
// operation costs. Classes whose rounds hold one operation of each ring size
// (3, 5 and 7 stages) use it: every value then has the same make-up, where
// a median over single operations would sit on whichever size holds the
// middle.
func roundMedian(c *class, agg func([]float64) float64) float64 {
	byRound := map[int][]float64{}
	for _, s := range c.samples {
		byRound[s.round] = append(byRound[s.round], s.scaled)
	}
	var vals []float64
	for _, xs := range byRound {
		vals = append(vals, agg(xs))
	}
	return median(vals)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// throughput is the class's total work per scaled CPU second.
func throughput(c *class) float64 {
	var work, cpu float64
	for _, s := range c.samples {
		work += s.work
		cpu += s.scaled
	}
	if cpu == 0 {
		return 0
	}
	return work / cpu
}

// printAudit prints the figures behind the metrics: the kernel's speed and
// drift, and the raw CPU and wall-clock p50/p99 of every class.
func (b *bench) printAudit(scale float64, setup *class) {
	fmt.Printf("workload %s seed %d: %d rounds\n", b.mix.name, b.seed, b.round)
	fmt.Printf("reference kernel: %.1f units/s median of %d samples (nominal %.1f, scale %.4f), drift %+.1f %%, %.3f s of CPU\n",
		b.ref.speed(), len(b.ref.speeds), nominalUnitsPerSec, scale, 100*b.ref.drift(), b.ref.cpu.Seconds())
	fmt.Printf("setup: raw CPU %v s\n", values(setup, rawCPU))
	if len(b.yields) > 0 {
		fmt.Printf("yield studies: %d, parametric yield median %.3f (min %.3f, max %.3f), %d of %d corner BERs above 1\n",
			len(b.yields), median(b.yields), quantile(b.yields, 0), quantile(b.yields, 1), b.berAboveOne, b.corners)
	}
	if b.tracing {
		for _, bits := range adderBits {
			if m := b.tr.counts[fmt.Sprintf("efficiency.macro.%d", bits)]; m > 0 {
				fmt.Printf("same adder word, %d bits: transistor level / phase macromodel CPU = %.0f\n",
					bits, b.tr.counts[fmt.Sprintf("efficiency.spice.%d", bits)]/m)
			}
		}
	}
	var total, own float64
	for _, c := range b.classes {
		total += c.cpu
		if slices.Contains(b.mix.own, c.name) {
			own += c.cpu
		}
	}
	fmt.Printf("own classes %v: %.1f %% of the timed CPU\n", b.mix.own, 100*own/total)
	fmt.Printf("%-14s %6s %6s %7s %6s %10s %10s %10s %10s\n", "class", "ops", "failed", "faulted", "cpu_%",
		"cpu_p50_ms", "cpu_p99_ms", "wall_p50_ms", "wall_p99_ms")
	for _, c := range b.classes {
		cs, ws := values(c, rawCPU), values(c, wall)
		fmt.Printf("%-14s %6d %6d %7d %6.1f %10.3f %10.3f %10.3f %10.3f\n", c.name, c.attempted, c.failed, c.faulted,
			100*c.cpu/total, 1e3*median(cs), 1e3*quantile(cs, 0.99), 1e3*median(ws), 1e3*quantile(ws, 0.99))
	}
}
