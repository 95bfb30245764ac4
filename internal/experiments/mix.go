package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
	"repro/internal/platform"
)

// The mixed-serving probes: closed-loop client streams of mixed sizes (the
// §4.3 multi-tenant serving mix) served by the tiered engine against a
// mutex-serialized executor, by a recorder-on engine against a
// Trace.Disable one, and the tiny tier's direct path against a full-CAKE
// executor on identical calls.

// serveWorkItem is one pre-generated request.
type serveWorkItem struct {
	m, k, n int
	tier    engine.Tier
	a, b    *matrix.Matrix[float32]
}

// servePlatform pins the tier thresholds for the corpus: results must be
// comparable across hosts with different caches, so every engine the corpus
// builds classifies against a fixed model (L1 32 KB, LLC 2 MB) rather than
// the host's detected geometry. Only Cores follows the machine.
func servePlatform(cores int) *platform.Platform {
	return &platform.Platform{
		Name:          "serve-bench",
		Cores:         cores,
		L1Bytes:       32 << 10,
		L2Bytes:       256 << 10,
		LLCBytes:      2 << 20,
		DRAMBytes:     8 << 30,
		DRAMBW:        25e9,
		ClockHz:       3e9,
		FlopsPerCycle: 4,
		Internal:      platform.BWCurve{SlopePre: 40e9, Knee: 8, SlopePost: 15e9},
		LatL1:         4, LatL2: 12, LatLLC: 40, LatDRAM: 200,
		DemandOverlap: 0.95,
		HasL3:         true,
	}
}

// serveWorkload generates the deterministic per-tier request pools. Every
// client stream draws from the pool of its own size class, so every serving
// mode sees identical operands.
func serveWorkload(e *engine.Engine) map[engine.Tier][]serveWorkItem {
	rng := rand.New(rand.NewSource(42))
	// 384³ f32 is a 2.95 MB §4.3 working set — safely past the 2 MB model
	// LLC (shrinking it below 320 would fold the tier into small).
	const large = 384
	gen := func(n int, dims func() (m, k, n int)) []serveWorkItem {
		out := make([]serveWorkItem, n)
		for i := range out {
			m, k, nn := dims()
			a := matrix.New[float32](m, k)
			b := matrix.New[float32](k, nn)
			a.Randomize(rng)
			b.Randomize(rng)
			out[i] = serveWorkItem{m: m, k: k, n: nn, tier: e.TierFor(m, k, nn, 4), a: a, b: b}
		}
		return out
	}
	return map[engine.Tier][]serveWorkItem{
		engine.TierTiny: gen(32, func() (int, int, int) { // fits L1
			return 8 + rng.Intn(24), 8 + rng.Intn(24), 8 + rng.Intn(24)
		}),
		engine.TierSmall: gen(16, func() (int, int, int) { // cache-resident
			return 96 + rng.Intn(64), 96 + rng.Intn(64), 96 + rng.Intn(64)
		}),
		engine.TierLarge: gen(4, func() (int, int, int) { // beyond model LLC
			return large, large, large
		}),
	}
}

// clientTier maps a client index onto its stream's size class. Per eight
// clients: five interactive tiny streams (activations-×-weights requests),
// two cache-resident mid-size streams, one full-machine batch stream —
// the multi-tenant serving mix of §4.3.
func clientTier(cl int) engine.Tier {
	switch cl % 8 {
	case 5, 6:
		return engine.TierSmall
	case 7:
		return engine.TierLarge
	default:
		return engine.TierTiny
	}
}

// mixClients is the closed-loop client count of the mixed-serving probes.
const mixClients = 8

// mixDur is each serving side's closed-loop window per run.
func mixDur(quick bool) time.Duration {
	if quick {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// tinyThink is the closed-loop think time of interactive tiny streams.
// Without a gap a tiny client is a pure spin loop, and on a small host the
// five spinners starve the compute tiers of CPU; 100µs models a caller that
// does some work between requests while still offering thousands of
// requests per second per stream.
const tinyThink = 100 * time.Microsecond

// percentileMicros returns the p-th percentile (0–100) of the samples in
// microseconds (nearest-rank on a sorted copy).
func percentileMicros(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return float64(s[idx].Nanoseconds()) / 1e3
}

// maxLatSamples caps the retained per-client latency samples per tier; a
// fast tiny stream can complete millions of requests, and percentiles from
// the first 200k are representative enough not to hold them all.
const maxLatSamples = 200_000

// tierSamples accumulates one tier's request count, latencies, and work
// volume. n counts every completed request; lat is capped.
type tierSamples struct {
	lat   []time.Duration
	n     int
	flops float64
}

// runServeSide drives the per-tier workload pools with `clients` concurrent
// closed-loop client streams for the given duration through run(),
// collecting per-tier request counts and latencies. Client cl serves the
// size class clientTier(cl) and walks its pool from offset cl, so every
// serving mode sees the same request streams regardless of relative speed.
func runServeSide(pools map[engine.Tier][]serveWorkItem, clients int, dur time.Duration,
	run func(it *serveWorkItem, c *matrix.Matrix[float32]) error) (map[engine.Tier]*tierSamples, time.Duration, error) {
	agg := make(map[engine.Tier]*tierSamples, 3)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			items := pools[clientTier(cl)]
			c := matrix.New[float32](512, 512) // reused output, resized by view
			local := &tierSamples{}
			for i := cl; time.Now().Before(deadline); i++ {
				it := &items[i%len(items)]
				cv := c.View(0, 0, it.m, it.n)
				cv.Zero()
				t0 := time.Now()
				if err := run(it, cv); err != nil {
					errCh <- err
					return
				}
				if len(local.lat) < maxLatSamples {
					local.lat = append(local.lat, time.Since(t0))
				}
				local.n++
				local.flops += matrix.GemmFlops(it.m, it.n, it.k)
				if it.tier == engine.TierTiny {
					time.Sleep(tinyThink)
				}
			}
			mu.Lock()
			tier := clientTier(cl)
			dst := agg[tier]
			if dst == nil {
				agg[tier] = local
			} else {
				dst.lat = append(dst.lat, local.lat...)
				dst.n += local.n
				dst.flops += local.flops
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, 0, err
	}
	return agg, elapsed, nil
}

// mixSample sums a serving side's tiers (all of them when tiers is empty)
// into one sample over the side's wall time.
func mixSample(agg map[engine.Tier]*tierSamples, elapsed time.Duration, tiers ...engine.Tier) runSample {
	if len(tiers) == 0 {
		tiers = []engine.Tier{engine.TierTiny, engine.TierSmall, engine.TierLarge}
	}
	s := runSample{elapsed: elapsed}
	for _, t := range tiers {
		if ts := agg[t]; ts != nil {
			s.gemms += ts.n
			s.flops += ts.flops
			if len(tiers) == 1 {
				s.p50 = percentileMicros(ts.lat, 50)
			}
		}
	}
	return s
}

// mixCell is a mixed-serving cell template: no fixed dims, time-boxed.
func mixCell(shape, scenario, tier string) CorpusCell {
	return CorpusCell{Shape: shape, Scenario: scenario, Dtype: "f32", Tier: tier}
}

// serveMixSpec is the concurrent-serving probe: per run, the mix through
// the tiered engine (total and per tier), then the same streams through the
// pre-engine answer — one full-CAKE executor behind a mutex. Under the
// mutex, microsecond tiny requests wait behind tens-of-milliseconds large
// GEMMs; the engine's direct tiny path never enters that queue.
func serveMixSpec() probeSpec {
	cells := []CorpusCell{
		mixCell("mix", "engine", "mixed"),
		mixCell("mix-tiny", "engine", "tiny"),
		mixCell("mix-small", "engine", "small"),
		mixCell("mix-large", "engine", "large"),
		mixCell("mix", "serialized", "serialized"),
	}
	return probeSpec{group: "mix", cells: cells, gated: true, build: func(env *probeEnv) (runFn, func(), error) {
		baseExec, err := largeExecutor(env.cores)
		if err != nil {
			return nil, nil, err
		}
		eng, err := engine.NewEngine(engine.Options{Platform: servePlatform(env.cores), Name: "serve-mix", LargePanelSlots: 8})
		if err != nil {
			baseExec.Close()
			return nil, nil, err
		}
		var baseMu sync.Mutex
		pools := serveWorkload(eng)
		dur := mixDur(env.quick)
		run := func() ([]runSample, error) {
			engAgg, engEl, err := runServeSide(pools, mixClients, dur,
				func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
					_, err := engine.Gemm(eng, c, it.a, it.b)
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("engine side: %w", err)
			}
			serAgg, serEl, err := runServeSide(pools, mixClients, dur,
				func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
					baseMu.Lock()
					defer baseMu.Unlock()
					_, err := baseExec.Gemm(c, it.a, it.b)
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("serialized side: %w", err)
			}
			return []runSample{
				mixSample(engAgg, engEl),
				mixSample(engAgg, engEl, engine.TierTiny),
				mixSample(engAgg, engEl, engine.TierSmall),
				mixSample(engAgg, engEl, engine.TierLarge),
				mixSample(serAgg, serEl),
			}, nil
		}
		return run, func() { baseExec.Close(); eng.Close() }, nil
	}}
}

// largeExecutor is the pre-engine concurrency answer: one full-CAKE
// executor planned for the mix's large shape.
func largeExecutor(cores int) (*core.Executor[float32], error) {
	cfg, err := core.Plan(servePlatform(cores), 384, 384, 384, 4)
	if err != nil {
		return nil, err
	}
	return core.NewExecutor[float32](cfg, nil)
}

// tinyABSpec times the tiny pool's GEMMs down both dispatch paths — the
// engine's direct microkernel path and a full-CAKE executor — alternately
// on one goroutine, isolating dispatch overhead from contention. Each run
// records both paths' p50 latency.
func tinyABSpec() probeSpec {
	cells := []CorpusCell{mixCell("tiny-mix", "direct", "tiny"), mixCell("tiny-mix", "cake", "executor")}
	return probeSpec{group: "mix", cells: cells, gated: true, build: func(env *probeEnv) (runFn, func(), error) {
		tiny := serveWorkload(env.e)[engine.TierTiny]
		ex, err := largeExecutor(env.cores)
		if err != nil {
			return nil, nil, err
		}
		d := engine.NewDirectScratch[float32](8, 8)
		reps := 20
		if env.quick {
			reps = 5
		}
		outs := make([]*matrix.Matrix[float32], len(tiny))
		var flops float64
		for i, it := range tiny {
			outs[i] = matrix.New[float32](it.m, it.n)
			flops += matrix.GemmFlops(it.m, it.n, it.k)
		}
		run := func() ([]runSample, error) {
			direct := make([]time.Duration, 0, reps*len(tiny))
			cake := make([]time.Duration, 0, reps*len(tiny))
			for r := 0; r < reps; r++ {
				for i := range tiny {
					it, c := &tiny[i], outs[i]
					t0 := time.Now()
					if _, err := d.GemmScaled(c, it.a, it.b, false, false, 1, 1); err != nil {
						return nil, err
					}
					direct = append(direct, time.Since(t0))
					t0 = time.Now()
					if _, err := ex.Gemm(c, it.a, it.b); err != nil {
						return nil, err
					}
					cake = append(cake, time.Since(t0))
				}
			}
			return []runSample{latencySample(direct, flops*float64(reps)), latencySample(cake, flops*float64(reps))}, nil
		}
		return run, ex.Close, nil
	}}
}

// latencySample turns per-GEMM latencies into a sample: the work over the
// summed latency, and the p50.
func latencySample(lat []time.Duration, flops float64) runSample {
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return runSample{gemms: len(lat), flops: flops, elapsed: sum, p50: percentileMicros(lat, 50)}
}

// obsSpec is the request-observability A/B: per run, the mix through an
// engine with the flight recorder, per-tier histograms and SLO windows on,
// then through an engine with Trace.Disable. The recorder's design bar is
// the nil-recorder fast path's: a handful of atomics per request.
func obsSpec() probeSpec {
	cells := []CorpusCell{mixCell("mix", "recorder-on", "mixed"), mixCell("mix", "recorder-off", "mixed")}
	return probeSpec{group: "obs", cells: cells, gated: true, build: func(env *probeEnv) (runFn, func(), error) {
		pl := servePlatform(env.cores)
		// The recorder-on engine runs the full layer: ring, tier histograms
		// and live SLO objectives (per-tier and per-tenant, so both selector
		// paths execute per request).
		on, err := engine.NewEngine(engine.Options{
			Platform: pl, Name: "obs-on", LargePanelSlots: 8,
			Trace: reqtrace.Options{Objectives: []reqtrace.Objective{
				{Tier: "tiny", Target: 10 * time.Millisecond},
				{Tier: "small", Target: 100 * time.Millisecond},
				{Tier: "large", Target: time.Second},
				{Tenant: "obs"},
			}},
		})
		if err != nil {
			return nil, nil, err
		}
		off, err := engine.NewEngine(engine.Options{
			Platform: pl, Name: "obs-off", LargePanelSlots: 8,
			Trace: reqtrace.Options{Disable: true},
		})
		if err != nil {
			on.Close()
			return nil, nil, err
		}
		cleanup := func() { on.Close(); off.Close() }
		if on.Tracer() == nil || off.Tracer() != nil {
			cleanup()
			return nil, nil, fmt.Errorf("recorder-on engine must trace and recorder-off must not")
		}
		// Same pools for both sides: same platform model, same tiers.
		pools := serveWorkload(on)
		dur := mixDur(env.quick)
		side := func(e *engine.Engine) (runSample, error) {
			agg, el, err := runServeSide(pools, mixClients, dur,
				func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
					_, err := engine.GemmScaledFor(e, "obs", c, it.a, it.b, false, false, 1, 0)
					return err
				})
			return mixSample(agg, el), err
		}
		run := func() ([]runSample, error) {
			onS, err := side(on)
			if err != nil {
				return nil, fmt.Errorf("recorder-on side: %w", err)
			}
			onS.records = on.Tracer().Committed()
			offS, err := side(off)
			if err != nil {
				return nil, fmt.Errorf("recorder-off side: %w", err)
			}
			return []runSample{onS, offS}, nil
		}
		return run, cleanup, nil
	}}
}
