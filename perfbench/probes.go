package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/platform"
	"repro/internal/pool"
)

// Probes that measure one layer, or the host, in isolation. Every traced run
// makes all of them, whatever its workload, so a per-layer figure always has
// a value and a host slowdown shows up next to the layer numbers it moves.

// hostProbe holds the calibration figures, which only the host can move:
// they run the benchmark's own code, never the repository's.
type hostProbe struct {
	fma, copy, ref []float64
}

// copyBytes is the streaming-copy array size. On hosts whose LLC is larger
// (an array four times the LLC would not fit the memory budget) the figure
// is cache-level bandwidth; the run notes both sizes.
const copyBytes = 32 << 20

var fmaSink float64

// measure appends one fma, one copy and one reference-work figure.
func (h *hostProbe) measure() {
	// Twenty bursts of the reference work that end-to-end metrics are
	// scaled by (refprobe.go).
	p := newSpeedProbe()
	var rates []float64
	for i := 0; i < 20; i++ {
		rates = append(rates, p.burst())
	}
	h.ref = append(h.ref, median(rates))

	// Eight independent scalar multiply-add chains for ~100 ms.
	const chunk = 1 << 20
	var iters int
	x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for i := 0; i < chunk; i++ {
			x0 = x0*0.999999 + 1e-7
			x1 = x1*0.999999 + 1e-7
			x2 = x2*0.999999 + 1e-7
			x3 = x3*0.999999 + 1e-7
			x4 = x4*0.999999 + 1e-7
			x5 = x5*0.999999 + 1e-7
			x6 = x6*0.999999 + 1e-7
			x7 = x7*0.999999 + 1e-7
		}
		iters += chunk
	}
	h.fma = append(h.fma, 16*float64(iters)/float64(time.Since(t0).Nanoseconds()))
	fmaSink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7

	// The arrays are dropped after each round, so they never count in the
	// retained heap read between rounds.
	src, dst := make([]float64, copyBytes/8), make([]float64, copyBytes/8)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault the pages in before timing
	var moved float64
	t0 = time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		copy(dst, src)
		moved += 2 * copyBytes // read + write
	}
	h.copy = append(h.copy, moved/float64(time.Since(t0).Nanoseconds()))
}

func (h *hostProbe) set(r *run) {
	llc := platform.DetectHost(1).LLCBytes
	r.notef("host probes (%d rounds): fma %v GFLOP/s, reference work %v GFLOP/s, copy %v GB/s over %d MiB arrays (host LLC %d MiB)",
		len(h.fma), h.fma, h.ref, h.copy, copyBytes>>20, llc>>20)
	r.set("host.ref_gflops", "GFLOP/s", median(h.ref))
	r.set("host.fma_gflops", "GFLOP/s", median(h.fma))
	r.set("host.copy_gbps", "GB/s", median(h.copy))
}

// kernelProbe times kernel.Best(8,8) on packed panels that stay in L1.
func kernelProbe[T matrix.Scalar](r *run, kc int) float64 {
	k := kernel.Best[T](8, 8)
	rng := r.rng(800)
	a := randMatrix[T](rng, 1, 8*kc).Data
	b := randMatrix[T](rng, 1, 8*kc).Data
	c := make([]T, 64)
	var rates []float64
	for round := 0; round < 3; round++ {
		var calls int
		t0 := time.Now()
		for time.Since(t0) < 60*time.Millisecond {
			for i := 0; i < 256; i++ {
				k.F(kc, a, b, c, 8)
			}
			calls += 256
			for i := range c {
				c[i] = 0
			}
		}
		rates = append(rates, flopsOf(8, kc, 8)*float64(calls)/float64(time.Since(t0).Nanoseconds()))
	}
	return median(rates)
}

// poolForProbe returns the median round trip of an empty pool.For over
// every worker, in microseconds.
func poolForProbe(cores int) float64 {
	p := pool.New(cores)
	defer p.Close()
	var ds []float64
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		s := time.Now()
		p.For(cores, func(int, int) {})
		ds = append(ds, float64(time.Since(s).Nanoseconds())/1e3)
	}
	return median(ds)
}

// scalingProbe runs the square-large shape through a probe engine, a bare
// executor on every core and a bare one-worker executor, interleaved, and
// sets core.executor_gflops, pool.scaling_eff and engine.large_vs_executor.
func scalingProbe(r *run) error {
	const n = 768
	rng := r.rng(810)
	a, b := randMatrix[float64](rng, n, n), randMatrix[float64](rng, n, n)
	c := matrix.New[float64](n, n)
	eng, err := engine.NewEngine(engine.Options{Platform: model(r.cores), Name: "perfbench-probe"})
	if err != nil {
		return err
	}
	defer eng.Close()
	executor := func(cores int) (*core.Executor[float64], error) {
		cfg, err := core.Plan(model(cores), n, n, n, 8)
		if err != nil {
			return nil, err
		}
		return core.NewExecutor[float64](cfg, nil)
	}
	exP, err := executor(r.cores)
	if err != nil {
		return err
	}
	defer exP.Close()
	ex1, err := executor(1)
	if err != nil {
		return err
	}
	defer ex1.Close()
	runs := []func() error{
		func() error { _, err := engine.GemmScaled(eng, c, a, b, false, false, 1, 0); return err },
		func() error { _, err := exP.GemmScaled(c, a, b, false, false, 1, 0); return err },
		func() error { _, err := ex1.GemmScaled(c, a, b, false, false, 1, 0); return err },
	}
	rates := make([][]float64, len(runs))
	for round := 0; round < 4; round++ {
		for i, f := range runs {
			t0 := time.Now()
			if err := f(); err != nil {
				return fmt.Errorf("scaling probe: %w", err)
			}
			if round > 0 { // round 0 warms leases and buffers
				rates[i] = append(rates[i], flopsOf(n, n, n)/float64(time.Since(t0).Nanoseconds()))
			}
		}
	}
	gEng, gP, g1 := median(rates[0]), median(rates[1]), median(rates[2])
	r.notef("scaling probe %d³ f64: engine %.2f, executor p=%d %.2f, executor p=1 %.2f GFLOP/s", n, gEng, r.cores, gP, g1)
	r.set("core.executor_gflops", "GFLOP/s", gP)
	r.set("pool.scaling_eff", "share", share(gP, float64(r.cores)*g1))
	r.set("engine.large_vs_executor", "share", share(gEng, gP))
	return nil
}

// engineProbe measures the engine's own cost per request on identical
// operands: a tiny request through the engine against the same call on a
// bare DirectScratch, and through an engine with reqtrace disabled; a small
// request against the same call on a bare executor with the tier's config;
// and the resident write path (RegisterB).
func engineProbe(r *run) error {
	pl := model(r.cores)
	traced, err := engine.NewEngine(engine.Options{Platform: pl, Name: "perfbench-probe-traced"})
	if err != nil {
		return err
	}
	defer traced.Close()
	plain, err := engine.NewEngine(engine.Options{Platform: pl, Name: "perfbench-probe-plain", Trace: reqtrace.Options{Disable: true}})
	if err != nil {
		return err
	}
	defer plain.Close()
	rng := r.rng(820)

	ta, tb, tc := randMatrix[float32](rng, 8, 24), randMatrix[float32](rng, 24, 24), matrix.New[float32](8, 24)
	direct := engine.NewDirectScratch[float32](8, 8)
	tiny := []func() error{
		func() error { _, err := engine.GemmScaled(traced, tc, ta, tb, false, false, 1, 0); return err },
		func() error { _, err := engine.GemmScaled(plain, tc, ta, tb, false, false, 1, 0); return err },
		func() error { _, err := direct.GemmScaled(tc, ta, tb, false, false, 1, 0); return err },
	}
	tinyUs, err := interleave(tiny, 20000, 300*time.Millisecond)
	if err != nil {
		return fmt.Errorf("engine probe tiny: %w", err)
	}

	sa, sb, sc := randMatrix[float32](rng, 32, 128), randMatrix[float32](rng, 128, 128), matrix.New[float32](32, 128)
	sp := pool.New(traced.TierCores(engine.TierSmall))
	defer sp.Close()
	ex, err := core.NewExecutor[float32](traced.TierConfig(engine.TierSmall, 4), sp)
	if err != nil {
		return err
	}
	small := []func() error{
		func() error { _, err := engine.GemmScaled(traced, sc, sa, sb, false, false, 1, 0); return err },
		func() error { _, err := ex.GemmScaled(sc, sa, sb, false, false, 1, 0); return err },
	}
	smallUs, err := interleave(small, 2000, 300*time.Millisecond)
	if err != nil {
		return fmt.Errorf("engine probe small: %w", err)
	}

	var reg []float64
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		if err := engine.RegisterB(traced, id, sb); err != nil {
			return err
		}
		reg = append(reg, float64(time.Since(t0).Nanoseconds())/1e6)
		if err := traced.ReleaseB(id); err != nil {
			return err
		}
	}

	r.notef("engine probe: tiny 8x24x24 engine %.2fus, untraced engine %.2fus, direct %.2fus; small 32x128x128 engine %.2fus, executor %.2fus",
		tinyUs[0], tinyUs[1], tinyUs[2], smallUs[0], smallUs[1])
	r.set("engine.tiny_overhead_us", "us", tinyUs[0]-tinyUs[2])
	r.set("engine.small_overhead_us", "us", smallUs[0]-smallUs[1])
	r.set("reqtrace.overhead_share", "share", share(tinyUs[0], tinyUs[1])-1)
	r.set("resident.register_ms", "ms", median(reg))
	return nil
}

// interleave calls every function in turn, round after round, until iters
// rounds or budget has passed, and returns each one's median latency in
// microseconds. The first tenth of the rounds warm up and are not kept.
func interleave(fs []func() error, iters int, budget time.Duration) ([]float64, error) {
	lat := make([][]float64, len(fs))
	start := time.Now()
	for it := 0; it < iters && time.Since(start) < budget; it++ {
		for i, f := range fs {
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			if it >= iters/10 {
				lat[i] = append(lat[i], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	out := make([]float64, len(fs))
	for i := range lat {
		out[i] = median(lat[i])
	}
	return out, nil
}

// layerProbes runs every isolated probe of a traced run.
func layerProbes(r *run) error {
	r.set("kernel.gflops_f32", "GFLOP/s", kernelProbe[float32](r, 256))
	r.set("kernel.gflops_f64", "GFLOP/s", kernelProbe[float64](r, 128))
	r.set("pool.for_us", "us", poolForProbe(r.cores))
	if err := scalingProbe(r); err != nil {
		return err
	}
	return engineProbe(r)
}

// engineCounters sets the engine's serving ratios and tier counts for the
// traced window (before/after are Engine.Counters snapshots; all zero for a
// workload that bypasses the engine).
func engineCounters(r *run, before, after obs.EngineStats, requests int64) {
	leases := float64(after.LeaseNew - before.LeaseNew + after.LeaseReused - before.LeaseReused)
	r.set("engine.lease_reuse_ratio", "share", share(float64(after.LeaseReused-before.LeaseReused), leases))
	r.set("engine.queued_ratio", "share", share(float64(after.QueuedTotal-before.QueuedTotal), float64(requests)))
	r.set("engine.tier_tiny", "count", float64(after.TierTiny-before.TierTiny))
	r.set("engine.tier_small", "count", float64(after.TierSmall-before.TierSmall))
	r.set("engine.tier_large", "count", float64(after.TierLarge-before.TierLarge))
}
