package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// TraceBuckets is the fixed bucket count of the bandwidth timelines: both
// executors' runs are divided into the same number of windows so their
// coefficients of variation compare bucket-for-bucket regardless of wall
// time. The count is deliberately coarse — each bucket must span several
// CB-block periods, or the sampling aliases with CAKE's per-block pack
// bursts and manufactures spikiness the memory bus never sees (GOTO's
// panel period is far longer, so its bursts survive any bucketing).
const TraceBuckets = 12

// Timeline is one traced execution reduced to its bandwidth story.
type Timeline struct {
	Executor string
	Wall     time.Duration
	Spans    int
	Dropped  int64
	MeanGBps float64
	PeakGBps float64
	CoV      float64       // per-bucket DRAM traffic stddev over mean
	Rec      *obs.Recorder // the run's spans, for trace export
}

// BandwidthPair is the traced CAKE (pipelined, default panel ring) and GOTO
// pair on one skewed shape — small M with large K and N, the §5.2.1
// pack-heavy class where the temporal contrast is starkest: CAKE streams
// panel packs continuously under compute, while GOTO alternates wide
// B-panel pack bursts with partial-C streaming. It backs the corpus
// bandwidth cells and `cake-bench trace`.
type BandwidthPair struct {
	M, K, N int
	Flops   float64
	cake    tracedGemm
	gotoEx  tracedGemm
}

type tracedGemm struct {
	name  string
	rec   *obs.Recorder
	gemm  func() error
	close func()
}

// NewBandwidthPair builds both executors with span recorders attached.
func NewBandwidthPair(cores int, quick bool) (*BandwidthPair, error) {
	m, k, n := 32, 1024, 512
	cakeCfg := core.Config{Cores: cores, MC: 8, KC: 512, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	gotoCfg := gotoalg.Config{Cores: cores, MC: 32, KC: 128, NC: 512, MR: 8, NR: 8}
	if quick {
		k, n = 512, 256
		cakeCfg.KC = 256
		gotoCfg.NC = 256
	}
	a := matrix.New[float32](m, k)
	b := matrix.New[float32](k, n)
	rng := rand.New(rand.NewSource(23))
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](m, n)
	p := &BandwidthPair{M: m, K: k, N: n, Flops: matrix.GemmFlops(m, n, k)}

	cakeRec := obs.NewRecorder(cores, 0)
	ce, err := core.NewExecutor[float32](cakeCfg, nil, core.WithTrace(cakeRec))
	if err != nil {
		return nil, fmt.Errorf("experiments: trace cake: %w", err)
	}
	p.cake = tracedGemm{"cake", cakeRec, func() error { _, err := ce.Gemm(c, a, b); return err }, ce.Close}
	gotoRec := obs.NewRecorder(cores, 0)
	ge, err := gotoalg.NewExecutor[float32](gotoCfg, nil, gotoalg.WithTrace(gotoRec))
	if err != nil {
		ce.Close()
		return nil, fmt.Errorf("experiments: trace goto: %w", err)
	}
	p.gotoEx = tracedGemm{"goto", gotoRec, func() error { _, err := ge.Gemm(c, a, b); return err }, ge.Close}
	return p, nil
}

// Close releases both executors.
func (p *BandwidthPair) Close() {
	p.cake.close()
	p.gotoEx.close()
}

// Run executes CAKE then GOTO once each, resetting each recorder first, so
// the retained trace, the wall time and the timeline all describe the same
// execution.
func (p *BandwidthPair) Run() (cake, gotoTL Timeline, err error) {
	if cake, err = p.cake.run(); err != nil {
		return
	}
	gotoTL, err = p.gotoEx.run()
	return
}

func (t tracedGemm) run() (Timeline, error) {
	t.rec.Reset()
	t0 := time.Now()
	if err := t.gemm(); err != nil {
		return Timeline{}, fmt.Errorf("experiments: trace %s: %w", t.name, err)
	}
	wall := time.Since(t0)
	spans := t.rec.Spans()
	st := obs.NewTimelineN(spans, TraceBuckets).Stats()
	return Timeline{
		Executor: t.name, Wall: wall, Spans: len(spans), Dropped: t.rec.Dropped(),
		MeanGBps: st.MeanBps / 1e9, PeakGBps: st.PeakBps / 1e9, CoV: st.CoV, Rec: t.rec,
	}, nil
}

// bandwidthSpec is the bandwidth invariant's probe: per run, one traced
// CAKE GEMM then one traced GOTO GEMM, each cell recording its
// bandwidth-timeline CoV. A dropped span would leave the timeline
// incomplete, so it fails the probe.
func bandwidthSpec(sh corpusShape) probeSpec {
	cells := []CorpusCell{newCell(sh, "trace-cake", "f32"), newCell(sh, "trace-goto", "f32")}
	for i := range cells {
		cells[i].Reps, cells[i].Tier = 1, "executor"
	}
	return probeSpec{group: "trace", cells: cells, gated: true, build: func(env *probeEnv) (runFn, func(), error) {
		p, err := NewBandwidthPair(env.cores, env.quick)
		if err != nil {
			return nil, nil, err
		}
		run := func() ([]runSample, error) {
			cake, gotoTL, err := p.Run()
			if err != nil {
				return nil, err
			}
			out := make([]runSample, 0, 2)
			for _, tl := range []Timeline{cake, gotoTL} {
				if tl.Dropped > 0 {
					return nil, fmt.Errorf("%s trace dropped %d spans", tl.Executor, tl.Dropped)
				}
				out = append(out, runSample{gemms: 1, flops: p.Flops, elapsed: tl.Wall, bwCoV: tl.CoV})
			}
			return out, nil
		}
		return run, p.Close, nil
	}}
}
