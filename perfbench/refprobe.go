package main

import "time"

// Host-speed scaling. The shared hosts this benchmark runs on change speed
// by up to 2× between periods tens of minutes apart, for every workload at
// once: a run's absolute times say more about the period it ran in than
// about the program. So every run also times the benchmark's own reference
// work in short bursts between its measured calls, and every end-to-end time
// and rate is reported at a fixed reference speed: a time is multiplied, and
// a rate divided, by (measured reference rate / refRate). The reference work
// is a block multiply through a copy of the repository's 8×8
// register-blocked kernel, kept here so no change to the repository can move
// it: the program's instruction mix and cache footprint class, none of its
// code.

const (
	// refRate is the reference speed, in GFLOP/s of the reference work,
	// that end-to-end metrics are scaled to.
	refRate = 4.0
	// Reference work: a packed refMC×refKC block of A times a packed
	// refKC×refNC panel of B, float64, about 0.5 MiB in all.
	refMC, refKC, refNC = 128, 128, 256
	refBurst            = 5 * time.Millisecond   // least length of one burst
	refEvery            = 250 * time.Millisecond // least gap between bursts
)

// speedProbe measures the reference rate in bursts spread over a run.
type speedProbe struct {
	a, b, c []float64
	last    time.Time
	rates   []float64     // GFLOP/s of each burst
	spent   time.Duration // time spent in bursts
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		a: make([]float64, refMC*refKC), b: make([]float64, refKC*refNC), c: make([]float64, refMC*refNC),
		rates: make([]float64, 0, 1024), // no allocation inside a measured window
	}
	for i := range p.a {
		p.a[i] = 1 / float64(i+1)
	}
	for i := range p.b {
		p.b[i] = 1 / float64(i+2)
	}
	return p
}

// burst runs the reference work for at least refBurst and returns its rate
// in GFLOP/s.
func (p *speedProbe) burst() float64 {
	var blocks int
	t0 := time.Now()
	for time.Since(t0) < refBurst {
		refBlock(p.a, p.b, p.c)
		blocks++
	}
	return flopsOf(refMC, refKC, refNC) * float64(blocks) / float64(time.Since(t0).Nanoseconds())
}

// tick records a burst when refEvery has passed since the last one. Callers
// make it between measured calls, never inside one. A nil probe does
// nothing.
func (p *speedProbe) tick() {
	if p == nil || time.Since(p.last) < refEvery {
		return
	}
	t0 := time.Now()
	p.rates = append(p.rates, p.burst())
	p.last = time.Now()
	p.spent += p.last.Sub(t0)
}

// scale returns the run's median reference rate over refRate: 2 on a host
// period twice as fast as the reference speed.
func (p *speedProbe) scale() float64 {
	if len(p.rates) == 0 {
		p.rates = append(p.rates, p.burst())
	}
	return median(p.rates) / refRate
}

// refBlock multiplies the packed block a by the packed panel b into c.
func refBlock(a, b, c []float64) {
	for j := 0; j < refNC/8; j++ {
		bp := b[j*8*refKC : (j+1)*8*refKC]
		for i := 0; i < refMC/8; i++ {
			refKernel8x8(refKC, a[i*8*refKC:(i+1)*8*refKC], bp, c[i*8*refNC+j*8:], refNC)
		}
	}
}

// refKernel8x8 adds the product of the packed 8×kc micro-panel a and the
// packed kc×8 micro-panel b into the 8×8 tile of c at row stride ldc.
func refKernel8x8(kc int, a, b, c []float64, ldc int) {
	var c0, c1, c2, c3, c4, c5, c6, c7 [8]float64
	for k := 0; k < kc; k++ {
		ak := a[k*8 : k*8+8 : k*8+8]
		bk := b[k*8 : k*8+8 : k*8+8]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		b4, b5, b6, b7 := bk[4], bk[5], bk[6], bk[7]
		ai := ak[0]
		c0[0] += ai * b0
		c0[1] += ai * b1
		c0[2] += ai * b2
		c0[3] += ai * b3
		c0[4] += ai * b4
		c0[5] += ai * b5
		c0[6] += ai * b6
		c0[7] += ai * b7
		ai = ak[1]
		c1[0] += ai * b0
		c1[1] += ai * b1
		c1[2] += ai * b2
		c1[3] += ai * b3
		c1[4] += ai * b4
		c1[5] += ai * b5
		c1[6] += ai * b6
		c1[7] += ai * b7
		ai = ak[2]
		c2[0] += ai * b0
		c2[1] += ai * b1
		c2[2] += ai * b2
		c2[3] += ai * b3
		c2[4] += ai * b4
		c2[5] += ai * b5
		c2[6] += ai * b6
		c2[7] += ai * b7
		ai = ak[3]
		c3[0] += ai * b0
		c3[1] += ai * b1
		c3[2] += ai * b2
		c3[3] += ai * b3
		c3[4] += ai * b4
		c3[5] += ai * b5
		c3[6] += ai * b6
		c3[7] += ai * b7
		ai = ak[4]
		c4[0] += ai * b0
		c4[1] += ai * b1
		c4[2] += ai * b2
		c4[3] += ai * b3
		c4[4] += ai * b4
		c4[5] += ai * b5
		c4[6] += ai * b6
		c4[7] += ai * b7
		ai = ak[5]
		c5[0] += ai * b0
		c5[1] += ai * b1
		c5[2] += ai * b2
		c5[3] += ai * b3
		c5[4] += ai * b4
		c5[5] += ai * b5
		c5[6] += ai * b6
		c5[7] += ai * b7
		ai = ak[6]
		c6[0] += ai * b0
		c6[1] += ai * b1
		c6[2] += ai * b2
		c6[3] += ai * b3
		c6[4] += ai * b4
		c6[5] += ai * b5
		c6[6] += ai * b6
		c6[7] += ai * b7
		ai = ak[7]
		c7[0] += ai * b0
		c7[1] += ai * b1
		c7[2] += ai * b2
		c7[3] += ai * b3
		c7[4] += ai * b4
		c7[5] += ai * b5
		c7[6] += ai * b6
		c7[7] += ai * b7
	}
	rows := [8]*[8]float64{&c0, &c1, &c2, &c3, &c4, &c5, &c6, &c7}
	for i, r := range rows {
		ci := c[i*ldc : i*ldc+8 : i*ldc+8]
		for j := range ci {
			ci[j] += r[j]
		}
	}
}
