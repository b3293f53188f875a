package main

import (
	"math"
	"sort"
	"time"
)

// The reference kernel is a fixed pure-Go workload that stands in for "how
// fast is this host right now". It mixes the three things the design tools
// spend their time on: a dense LU factorization with partial pivoting and a
// solve, transcendental evaluation (exp, sin, log), and a read-modify-write
// sweep over a buffer larger than the L2 cache. Every gated time is the
// operation's CPU time multiplied by measured/nominal kernel speed, so a
// host that neighbours slow down by 10 % reads the same scaled cost.
//
// It imports nothing from the repository: a change to the program can never
// change the yardstick.

const (
	refN          = 48      // LU order
	refLUReps     = 8       // factor+solve repetitions per unit
	refTransN     = 16384   // transcendental evaluations per unit
	refSweepWords = 1 << 19 // 4 MiB of uint64 swept per unit
)

// nominalUnitsPerSec is the kernel's speed on the reference host (a shared
// 2-vCPU x86-64 container, Go 1.24, GOMAXPROCS 2). Three runs of 400
// four-unit samples gave medians of 492, 503 and 708 units/s: the host
// switches between a common slow mode near 500 and a faster one, and the
// common mode is taken as nominal. Scaled times are CPU times "at the
// reference speed".
const nominalUnitsPerSec = 500.0

type refKernel struct {
	a, lu, b, x []float64
	piv         []int
	mem         []uint64
	sink        float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a: make([]float64, refN*refN), lu: make([]float64, refN*refN),
		b: make([]float64, refN), x: make([]float64, refN),
		piv: make([]int, refN), mem: make([]uint64, refSweepWords),
	}
	// A fixed, well-conditioned, non-symmetric matrix.
	for i := 0; i < refN; i++ {
		for j := 0; j < refN; j++ {
			k.a[i*refN+j] = math.Sin(float64(i*refN+j)+0.5) / refN
		}
		k.a[i*refN+i] += 2
		k.b[i] = float64(i%7) - 3
	}
	for i := range k.mem {
		k.mem[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return k
}

// unit runs one unit of reference work.
func (k *refKernel) unit() {
	n := refN
	for r := 0; r < refLUReps; r++ {
		copy(k.lu, k.a)
		for c := 0; c < n; c++ {
			p := c
			for i := c + 1; i < n; i++ {
				if math.Abs(k.lu[i*n+c]) > math.Abs(k.lu[p*n+c]) {
					p = i
				}
			}
			k.piv[c] = p
			if p != c {
				for j := 0; j < n; j++ {
					k.lu[c*n+j], k.lu[p*n+j] = k.lu[p*n+j], k.lu[c*n+j]
				}
			}
			inv := 1 / k.lu[c*n+c]
			for i := c + 1; i < n; i++ {
				f := k.lu[i*n+c] * inv
				k.lu[i*n+c] = f
				row, prow := k.lu[i*n+c+1:i*n+n], k.lu[c*n+c+1:c*n+n]
				for j := range row {
					row[j] -= f * prow[j]
				}
			}
		}
		copy(k.x, k.b)
		for c := 0; c < n; c++ {
			if p := k.piv[c]; p != c {
				k.x[c], k.x[p] = k.x[p], k.x[c]
			}
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				k.x[i] -= k.lu[i*n+j] * k.x[j]
			}
		}
		for i := n - 1; i >= 0; i-- {
			for j := i + 1; j < n; j++ {
				k.x[i] -= k.lu[i*n+j] * k.x[j]
			}
			k.x[i] /= k.lu[i*n+i]
		}
		k.sink += k.x[r%n]
	}
	s := 0.0
	for i := 0; i < refTransN; i++ {
		t := float64(i)*1e-3 + 0.25
		s += math.Exp(-t) * math.Sin(3*t) / (1 + math.Log(1+t))
	}
	k.sink += s
	var acc uint64
	for i := range k.mem {
		v := k.mem[i]
		acc += v
		k.mem[i] = v ^ (v >> 7) + 1
	}
	k.sink += float64(acc & 0xff)
}

// refUnitsPerSample is the size of one speed sample (~6 ms at the nominal
// speed): long enough that clock resolution is irrelevant, short enough to
// sample often.
const refUnitsPerSample = 4

// refMeter samples the kernel's speed throughout a run.
type refMeter struct {
	k      *refKernel
	speeds []float64   // units per CPU second, in sampling order
	at     []time.Time // when each sample was taken
	cpu    time.Duration
	last   time.Time
	every  time.Duration
}

func newRefMeter(every time.Duration) *refMeter {
	return &refMeter{k: newRefKernel(), every: every}
}

// sample measures the kernel once.
func (m *refMeter) sample() {
	c0 := cpuNow()
	for i := 0; i < refUnitsPerSample; i++ {
		m.k.unit()
	}
	d := cpuNow() - c0
	m.cpu += d
	m.last = time.Now()
	if d > 0 {
		m.speeds = append(m.speeds, refUnitsPerSample/d.Seconds())
		m.at = append(m.at, m.last)
	}
}

// maybeSample samples when the last sample is older than the interval; it is
// called between operations, never inside a timed region.
func (m *refMeter) maybeSample() {
	if time.Since(m.last) >= m.every {
		m.sample()
	}
}

// speed is the run's median kernel speed.
func (m *refMeter) speed() float64 { return median(m.speeds) }

// scale converts raw CPU time to CPU time at the reference speed, with the
// run's median speed (for the per-layer unit costs).
func (m *refMeter) scale() float64 { return m.speed() / nominalUnitsPerSec }

// refWindow is how many samples around an operation set its scale: about
// one second of the host's speed at the default interval.
const refWindow = 5

// scaleAt is the scale for an operation that started at t: the median speed
// of the refWindow samples nearest in time, so a host that changes speed
// within a run is tracked, over the nominal speed.
func (m *refMeter) scaleAt(t time.Time) float64 {
	n := len(m.speeds)
	if n <= refWindow {
		return m.scale()
	}
	i := sort.Search(n, func(i int) bool { return !m.at[i].Before(t) })
	lo := min(max(i-refWindow/2, 0), n-refWindow)
	return median(m.speeds[lo:lo+refWindow]) / nominalUnitsPerSec
}

// drift compares the last third of the samples with the first third, as a
// share of the run's median speed.
func (m *refMeter) drift() float64 {
	n := len(m.speeds) / 3
	if n == 0 {
		return 0
	}
	return (median(m.speeds[len(m.speeds)-n:]) - median(m.speeds[:n])) / m.speed()
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none), without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
