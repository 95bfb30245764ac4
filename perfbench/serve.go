package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/pool"
)

// serve-mixed: a closed loop of one client (the engine is an in-process
// library whose callers block on each call) drawing from a seeded mix of
// three float32 request classes: tiny (the direct path, 80% of requests),
// small (32×128×128 with a fresh B, the small tier, 10%) and resident (the
// small shape against a B registered at set-up, 10%). small and resident run
// identical shapes but use the packing layer differently: resident skips the
// B pack.
const (
	classTiny = iota
	classSmall
	classResident
	classCount
)

var classNames = [classCount]string{"tiny", "small", "resident"}

// classFor maps a uniform draw in [0, 10) to a request class.
func classFor(u int) int {
	switch {
	case u < 8:
		return classTiny
	case u < 9:
		return classSmall
	}
	return classResident
}

const (
	serveTinySets  = 64
	serveSmallSets = 8
	serveCheckOne  = 16 // one request in serveCheckOne is checked against the oracle
	serveReplayOne = 8  // one traced request in serveReplayOne is replayed one layer down
	serveTail      = 0.99
	residentID     = "weights"
)

// serveOp is one pre-generated request operand set with its oracle.
type serveOp struct {
	a, b, ref *matrix.Matrix[float32]
	tol       []float64
}

func newServeOp(a, b *matrix.Matrix[float32]) serveOp {
	return serveOp{a: a, b: b, ref: naiveReference(a, b), tol: gemmTolerance(a, b)}
}

// serveClient is the closed-loop client's state. There is one client: on a
// host that lends the process a share of its CPUs, a second one mostly
// measures whether the host ran both at once.
type serveClient struct {
	rng   *rand.Rand
	cs    [classCount][]*matrix.Matrix[float32]
	hists [classCount]*hist
	flops float64
	tally tally

	// Traced runs only.
	rec     *recorder
	acct    layerAcct
	direct  *engine.DirectScratch[float32]
	exec    *core.Executor[float32]
	pool    *pool.Pool
	scratch *kernel.Scratch[float32]
	rcs     [classCount][]*matrix.Matrix[float32]
	bufA    []float32
	bufB    []float32
	reqs    int64

	smallCfg       core.Config
	rb             *core.ResidentB[float32]
	residentPanels []float32
}

// requestFunc runs one request (see runServeMixed's do).
type requestFunc func(cl *serveClient, cls, i int, check bool) (core.Stats, time.Time, time.Duration, error)

// tracedRequest runs one request under a root span and, for one request in
// serveReplayOne, replays it one layer down: the same operands through a
// bare DirectScratch (tiny) or the small tier's executor (small, resident),
// then packing and a kernel sweep on the same panels.
func (cl *serveClient) tracedRequest(op serveOp, cls, i int, check bool, do requestFunc) error {
	cl.reqs++
	req := cl.reqs
	name := "engine.GemmScaled"
	if cls == classResident {
		name = "engine.GemmResidentScaled"
	}
	st, t0, dt, _ := do(cl, cls, i, check)
	root := cl.rec.add(name, -1, req, t0, t0.Add(dt))
	cl.hists[cls].add(dt.Nanoseconds())
	a := &cl.acct
	a.st.Add(st)
	a.gemms++
	a.flops += flopsOf(op.a.Rows, op.a.Cols, op.b.Cols)
	a.wall += dt.Nanoseconds()
	if req%serveReplayOne != 0 {
		return nil
	}

	rc := cl.rcs[cls][i]
	var x int
	var err error
	switch cls {
	case classTiny:
		x = cl.rec.begin("engine.DirectScratch.GemmScaled", root, req)
		_, err = cl.direct.GemmScaled(rc, op.a, op.b, false, false, 1, 0)
	case classSmall:
		x = cl.rec.begin("core.Executor.GemmScaled", root, req)
		_, err = cl.exec.GemmScaled(rc, op.a, op.b, false, false, 1, 0)
	default:
		x = cl.rec.begin("core.Executor.GemmResident", root, req)
		_, err = cl.exec.GemmResident(rc, op.a, cl.rb, false, 1, 0)
	}
	cl.rec.end(x)
	if err != nil {
		return fmt.Errorf("replay %s: %w", classNames[cls], err)
	}
	a.replaySt.Add(st)

	cfg := cl.smallCfg
	var bp []float32
	switch cls {
	case classTiny:
		cfg = core.Config{MR: 8, NR: 8, KC: op.a.Cols}
	case classResident:
		bp = cl.residentPanels
	}
	rc.Zero()
	cl.bufA, cl.bufB = replayParts(cl.rec, a, x, req, cfg, rc, op.a, op.b, bp, cl.bufA, cl.bufB, cl.scratch)
	return nil
}

func runServeMixed(r *run) error {
	rng := r.rng(2)
	var ops [classCount][]serveOp
	// The tiny shapes are the same on every seed (each of the 16 in turn);
	// only the operand values and the request order come from the seed.
	for i := 0; i < serveTinySets; i++ {
		m, k, n := 8*(1+i%4), 24+8*(i/4%2), 24+8*(i/8%2)
		ops[classTiny] = append(ops[classTiny], newServeOp(randMatrix[float32](rng, m, k), randMatrix[float32](rng, k, n)))
	}
	resB := randMatrix[float32](rng, 128, 128)
	for i := 0; i < serveSmallSets; i++ {
		ops[classSmall] = append(ops[classSmall], newServeOp(randMatrix[float32](rng, 32, 128), randMatrix[float32](rng, 128, 128)))
		ops[classResident] = append(ops[classResident], newServeOp(randMatrix[float32](rng, 32, 128), resB))
	}

	cl := &serveClient{rng: r.rng(100)}
	for cls := range ops {
		cl.hists[cls] = newHist()
		for _, op := range ops[cls] {
			cl.cs[cls] = append(cl.cs[cls], matrix.New[float32](op.a.Rows, op.b.Cols))
		}
	}

	base := liveHeapMB()

	// do runs one request of class cls on operand set i for the client and
	// returns its start and latency; checked requests are poisoned before
	// and compared after, outside the timed call.
	var eng *engine.Engine
	do := func(cl *serveClient, cls, i int, check bool) (core.Stats, time.Time, time.Duration, error) {
		op, c := ops[cls][i], cl.cs[cls][i]
		if check {
			poison(c)
		}
		var st core.Stats
		var err error
		t0 := time.Now()
		if cls == classResident {
			st, err = engine.GemmResidentScaled(eng, c, op.a, residentID, false, 1, 0)
		} else {
			st, err = engine.GemmScaled(eng, c, op.a, op.b, false, false, 1, 0)
		}
		dt := time.Since(t0)
		cl.tally.record(err, !check || (err == nil && withinRows(c, op.ref, op.tol)))
		cl.flops += flopsOf(op.a.Rows, op.a.Cols, op.b.Cols)
		return st, t0, dt, err
	}

	setup, err := r.timeSetup(func() (func(), error) {
		var err error
		if eng, err = engine.NewEngine(engine.Options{Platform: model(r.cores), Name: "perfbench-serve"}); err != nil {
			return nil, err
		}
		return eng.Close, engine.RegisterB(eng, residentID, resB)
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer eng.Close()
	// Warm every class once, untimed: lazy set-up (lease creation, buffer
	// growth) stays out of the window.
	for cls := range ops {
		if _, _, _, err := do(cl, cls, 0, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	cl.tally, cl.flops = tally{}, 0
	for cls, want := range [classCount]engine.Tier{engine.TierTiny, engine.TierSmall, engine.TierSmall} {
		for _, op := range ops[cls] {
			if t := eng.TierFor(op.a.Rows, op.a.Cols, op.b.Cols, 4); t != want {
				return fmt.Errorf("dispatch: %s %dx%dx%d classified %s, want %s",
					classNames[cls], op.a.Rows, op.a.Cols, op.b.Cols, t, want)
			}
		}
	}

	// window runs the client until d has passed and returns the wall time,
	// less the time the speed probe, when not nil, took between requests.
	window := func(d time.Duration, traced bool, speed *speedProbe) (time.Duration, error) {
		for _, h := range cl.hists {
			h.reset()
		}
		var probed time.Duration
		start := time.Now()
		for deadline := start.Add(d); time.Now().Before(deadline); {
			cls := classFor(cl.rng.Intn(10))
			i := cl.rng.Intn(len(ops[cls]))
			check := cl.rng.Intn(serveCheckOne) == 0
			if traced {
				if err := cl.tracedRequest(ops[cls][i], cls, i, check, do); err != nil {
					return time.Since(start), err
				}
				continue
			}
			_, _, dt, _ := do(cl, cls, i, check)
			cl.hists[cls].add(dt.Nanoseconds())
			if speed != nil {
				t0 := time.Now()
				speed.tick()
				probed += time.Since(t0)
			}
		}
		return time.Since(start) - probed, nil
	}

	// collect copies out the window's histograms, all classes together and
	// per class, and its FLOPs, and moves its tally into the run's.
	collect := func() (all *hist, per [classCount]*hist, flops float64) {
		all = newHist()
		for cls, h := range cl.hists {
			per[cls] = newHist()
			per[cls].merge(h)
			all.merge(h)
		}
		flops = cl.flops
		r.tally.add(cl.tally)
		cl.flops, cl.tally = 0, tally{}
		return all, per, flops
	}
	noteClasses := func(per [classCount]*hist) {
		for cls, h := range per {
			q, _ := tailLevel(h.n, tailLadder)
			r.notef("class %-8s n=%d p50=%.2fus p%g=%.2fus", classNames[cls], h.n, h.quantile(0.5)/1e3, 100*q, h.quantile(q)/1e3)
		}
	}
	before := eng.Counters()

	if !r.trace {
		a0 := allocatedBytes()
		wall, err := window(r.seconds, false, r.speed)
		allocated := allocatedBytes() - a0
		if err != nil {
			return err
		}
		all, per, flops := collect()
		if err := pinTiers(eng, before, per[classTiny].n, per[classSmall].n+per[classResident].n, 0); err != nil {
			return err
		}
		noteClasses(per)
		r.setEndToEnd("all requests", all, serveTail, setup,
			flops/float64(wall.Nanoseconds()), float64(all.n)/wall.Seconds(),
			allocated/float64(all.n)/1024)
		return nil
	}

	var host hostProbe
	host.measure()
	if _, err := window(r.seconds/2, false, nil); err != nil {
		return err
	}
	r.set("mem.retained_mb", "MiB", liveHeapMB()-base)
	runtime.KeepAlive([]any{ops, cl})
	untraced, perU, _ := collect()
	host.measure()

	smallCfg := eng.TierConfig(engine.TierSmall, 4)
	rb, err := core.PackResidentB(smallCfg, resB, false)
	if err != nil {
		return err
	}
	residentPanels := packing.PackB(make([]float32, packing.PackedBSize(128, 128, smallCfg.NR)), resB, smallCfg.NR)
	cl.rec = newRecorder(time.Now())
	cl.direct = engine.NewDirectScratch[float32](8, 8)
	cl.pool = pool.New(eng.TierCores(engine.TierSmall))
	defer cl.pool.Close()
	if cl.exec, err = core.NewExecutor[float32](smallCfg, cl.pool); err != nil {
		return err
	}
	cl.scratch = kernel.NewScratch[float32](8, 8)
	for cls := range ops {
		for _, op := range ops[cls] {
			cl.rcs[cls] = append(cl.rcs[cls], matrix.New[float32](op.a.Rows, op.b.Cols))
		}
	}
	cl.rb, cl.residentPanels, cl.smallCfg = rb, residentPanels, smallCfg
	mid, resBefore := eng.Counters(), eng.ResidentStats()
	if _, err := window(r.seconds/2, true, nil); err != nil {
		return err
	}
	after, resAfter := eng.Counters(), eng.ResidentStats()
	traced, perT, _ := collect()
	host.measure()
	if err := pinTiers(eng, before, perU[classTiny].n+perT[classTiny].n,
		perU[classSmall].n+perU[classResident].n+perT[classSmall].n+perT[classResident].n, 0); err != nil {
		return err
	}
	noteClasses(perT)

	engineCounters(r, mid, after, traced.n)
	hits, misses := resAfter.Hits-resBefore.Hits, resAfter.Misses-resBefore.Misses
	r.set("resident.hit_ratio", "share", share(float64(hits), float64(hits+misses)))
	r.set("convnet.alloc_mb_per_image", "MiB", 0)
	overhead := share(traced.sumNs/float64(traced.n), untraced.sumNs/float64(untraced.n)) - 1
	return r.finishTrace("serve-mixed", &host, &cl.acct, []*recorder{cl.rec}, overhead)
}
