package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
)

// square-large: one caller issues back-to-back 768³ float64
// engine.GemmScaled calls (β = 0), which the model platform dispatches to
// the large tier — the paper's headline shape, where the kernel, the core
// pipeline and the pool do nearly all the work.
const squareN = 768

// callTail is the tail percentile reported for square-large and dnn-batch:
// p75, the highest rung a run of at least 40 calls supports.
const callTail = 0.75

// maxWall caps a measured window that is waiting for its minimum sample
// count, so a very slow host still finishes inside the time limit.
const maxWall = 120 * time.Second

// loopUntil calls op until the summed op time reaches d and at least minN
// calls ran (or maxWall passed), adding each latency to h, and returns the
// summed op time. op returns the duration it measured around the call. The
// speed probe, when not nil, runs its bursts between calls.
func loopUntil(h *hist, d time.Duration, minN int64, op func() time.Duration, speed *speedProbe) time.Duration {
	var busy time.Duration
	start := time.Now()
	for (busy < d || h.n < minN) && time.Since(start) < maxWall {
		dt := op()
		h.add(dt.Nanoseconds())
		busy += dt
		speed.tick()
	}
	return busy
}

func runSquareLarge(r *run) error {
	const n = squareN
	rng := r.rng(1)
	a, b := randMatrix[float64](rng, n, n), randMatrix[float64](rng, n, n)
	c := matrix.New[float64](n, n)
	ref, tol := naiveReference(a, b), gemmTolerance(a, b)
	h := newHist()
	base := liveHeapMB()

	var eng *engine.Engine
	setup, err := r.timeSetup(func() (func(), error) {
		var err error
		eng, err = engine.NewEngine(engine.Options{Platform: model(r.cores), Name: "perfbench-square"})
		if err != nil {
			return nil, err
		}
		return eng.Close, nil
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer eng.Close()
	if t := eng.TierFor(n, n, n, 8); t != engine.TierLarge {
		return fmt.Errorf("dispatch: %d³ f64 classified %s, want large", n, t)
	}
	if _, err := engine.GemmScaled(eng, c, a, b, false, false, 1, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	call := func() (core.Stats, time.Time, time.Duration) {
		poison(c)
		t0 := time.Now()
		st, err := engine.GemmScaled(eng, c, a, b, false, false, 1, 0)
		dt := time.Since(t0)
		r.tally.record(err, err == nil && withinRows(c, ref, tol))
		return st, t0, dt
	}
	op := func() time.Duration { _, _, dt := call(); return dt }
	minN := minSamplesFor(callTail)
	before := eng.Counters()

	if !r.trace {
		a0 := allocatedBytes()
		busy := loopUntil(h, r.seconds, minN, op, r.speed)
		allocated := allocatedBytes() - a0
		if err := pinTiers(eng, before, 0, 0, h.n); err != nil {
			return err
		}
		r.setEndToEnd("engine.GemmScaled", h, callTail, setup,
			flopsOf(n, n, n)*float64(h.n)/float64(busy.Nanoseconds()),
			float64(h.n)/busy.Seconds(), allocated/float64(h.n)/1024)
		return nil
	}

	// Traced run: an untraced half, then a traced half in which every call
	// is replayed one layer down.
	var host hostProbe
	host.measure()
	busyU := loopUntil(h, r.seconds/2, 3, op, nil)
	r.set("mem.retained_mb", "MiB", liveHeapMB()-base)
	runtime.KeepAlive([]any{a, b, c, ref, tol, h})
	host.measure()

	cfg := eng.TierConfig(engine.TierLarge, 8)
	p := pool.New(eng.TierCores(engine.TierLarge))
	defer p.Close()
	ex, err := core.NewExecutor[float64](cfg, p)
	if err != nil {
		return err
	}
	rec := newRecorder(time.Now())
	var acct layerAcct
	cr, cp := matrix.New[float64](n, n), matrix.New[float64](n, n)
	var bufA, bufB []float64
	sc := kernel.NewScratch[float64](cfg.MR, cfg.NR)
	mid := eng.Counters()
	var busyT time.Duration
	var calls int64
	for start := time.Now(); calls < 3 || time.Since(start) < r.seconds/2; calls++ {
		st, t0, dt := call()
		root := rec.add("engine.GemmScaled", -1, calls, t0, t0.Add(dt))
		busyT += dt
		acct.st.Add(st)
		acct.gemms++
		acct.flops += flopsOf(n, n, n)
		acct.wall += dt.Nanoseconds()

		x := rec.begin("core.Executor.GemmScaled", root, calls)
		_, err := ex.GemmScaled(cr, a, b, false, false, 1, 0)
		rec.end(x)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		acct.replaySt.Add(st)
		cp.Zero()
		bufA, bufB = replayParts(rec, &acct, x, calls, cfg, cp, a, b, nil, bufA, bufB, sc)
	}
	after := eng.Counters()
	host.measure()
	if err := pinTiers(eng, before, 0, 0, h.n+calls); err != nil {
		return err
	}

	engineCounters(r, mid, after, calls)
	r.set("resident.hit_ratio", "share", 0)
	r.set("convnet.alloc_mb_per_image", "MiB", 0)
	overhead := share(busyT.Seconds()/float64(calls), busyU.Seconds()/float64(h.n)) - 1
	return r.finishTrace("square-large", &host, &acct, []*recorder{rec}, overhead)
}

// pinTiers fails unless the engine's tier counters moved by exactly the
// expected per-tier request counts since before, so a threshold change
// cannot silently make a workload measure another path.
func pinTiers(eng *engine.Engine, before obs.EngineStats, tiny, small, large int64) error {
	after := eng.Counters()
	got := [3]int64{after.TierTiny - before.TierTiny, after.TierSmall - before.TierSmall, after.TierLarge - before.TierLarge}
	if want := [3]int64{tiny, small, large}; got != want {
		return fmt.Errorf("dispatch: tiny/small/large tier counts %v, want %v", got, want)
	}
	return nil
}
