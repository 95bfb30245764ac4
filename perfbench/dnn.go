package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/convnet"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
)

// dnn-batch: convnet.Network.ForwardBatch over 8 images of 3×32×32 through a
// 4-layer VGG-style float32 net (3→32→64→128→128 channels, 3×3 kernels,
// pooling after layers 2 and 4) on a core.Executor planned by core.Plan for
// the largest layer GEMM, with one pool worker per core. Its GEMMs are
// small-M, wide-N and pack-heavy, im2col and batching run around them, and
// it bypasses the engine.
const (
	dnnBatch = 8
	dnnSide  = 32
)

var dnnChannels = []int{3, 32, 64, 128, 128}
var dnnPools = []bool{false, true, false, true}

func runDNNBatch(r *run) error {
	rng := r.rng(3)
	layers := make([]*convnet.Layer[float32], len(dnnPools))
	var flops float64
	side := dnnSide
	var planM, planK, planN int
	for i := range layers {
		s := convnet.ConvSpec{InC: dnnChannels[i], OutC: dnnChannels[i+1], KH: 3, KW: 3, Stride: 1, Pad: 1}
		fanIn := s.InC * s.KH * s.KW
		w := randMatrix[float32](rng, s.OutC, fanIn)
		scale := float32(math.Sqrt(6 / float64(fanIn))) // He-uniform: activations stay O(1)
		for j := range w.Data {
			w.Data[j] *= scale
		}
		layers[i] = &convnet.Layer[float32]{Name: fmt.Sprintf("conv%d", i+1), Spec: s, Weights: w, ReLU: true}
		f := flopsOf(s.OutC, fanIn, side*side)
		if f > flopsOf(planM, planK, planN) {
			planM, planK, planN = s.OutC, fanIn, side*side
		}
		flops += f * dnnBatch
		if dnnPools[i] {
			side /= 2
		}
	}
	imgs := make([]*convnet.Tensor[float32], dnnBatch)
	for i := range imgs {
		imgs[i] = convnet.NewTensor[float32](dnnChannels[0], dnnSide, dnnSide)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = float32(2*rng.Float64() - 1)
		}
	}
	checked := rng.Intn(dnnBatch)
	oracle, err := newDNNOracle(layers, dnnPools, imgs[checked])
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	h := newHist()
	base := liveHeapMB()

	var (
		p   *pool.Pool
		ex  *core.Executor[float32]
		net *convnet.Network[float32]
		cfg core.Config
	)
	setup, err := r.timeSetup(func() (func(), error) {
		var err error
		if cfg, err = core.Plan(model(r.cores), planM, planK, planN, 4); err != nil {
			return nil, err
		}
		bp := pool.New(r.cores)
		bex, err := core.NewExecutor[float32](cfg, bp)
		if err != nil {
			bp.Close()
			return nil, err
		}
		p, ex = bp, bex
		net, err = convnet.NewNetwork(bex, layers, dnnPools)
		return func() { bex.Close(); bp.Close() }, err
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer p.Close()
	defer ex.Close()
	if _, _, err := net.ForwardBatch(imgs); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	call := func() (core.Stats, time.Time, time.Duration) {
		t0 := time.Now()
		outs, st, err := net.ForwardBatch(imgs)
		dt := time.Since(t0)
		r.tally.record(err, err == nil && oracle.matches(outs[checked]))
		return st, t0, dt
	}
	op := func() time.Duration { _, _, dt := call(); return dt }
	minN := minSamplesFor(callTail)
	if !r.trace {
		a0 := allocatedBytes()
		busy := loopUntil(h, r.seconds, minN, op, r.speed)
		allocated := allocatedBytes() - a0
		r.notef("raw images_per_s=%.3f", dnnBatch*float64(h.n)/busy.Seconds())
		r.setEndToEnd("convnet.Network.ForwardBatch", h, callTail, setup,
			flops*float64(h.n)/float64(busy.Nanoseconds()),
			float64(h.n)/busy.Seconds(), allocated/float64(h.n)/1024)
		return nil
	}

	var host hostProbe
	host.measure()
	busyU := loopUntil(h, r.seconds/2, 3, op, nil)
	r.set("mem.retained_mb", "MiB", liveHeapMB()-base)
	runtime.KeepAlive([]any{layers, imgs, oracle, h})
	host.measure()

	rec := newRecorder(time.Now())
	var acct layerAcct
	var bufA, bufB []float32
	sc := kernel.NewScratch[float32](cfg.MR, cfg.NR)
	var allocBytes float64
	var busyT time.Duration
	var calls int64
	for start := time.Now(); calls < 3 || time.Since(start) < r.seconds/2; calls++ {
		a0 := allocatedBytes()
		st, t0, dt := call()
		allocBytes += allocatedBytes() - a0
		root := rec.add("convnet.Network.ForwardBatch", -1, calls, t0, t0.Add(dt))
		busyT += dt
		acct.st.Add(st)
		acct.gemms += int64(st.BatchCalls)
		acct.flops += flops
		acct.wall += dt.Nanoseconds()

		// Replay one layer down: per layer, im2col of every image, one
		// batched GEMM on the executor, ReLU, pooling; then packing and a
		// kernel sweep on the first image's panels, under the GEMM's span.
		timed := func(name string, f func() error) (int, error) {
			s := rec.begin(name, root, calls)
			err := f()
			rec.end(s)
			return s, err
		}
		acts := imgs
		for li, l := range layers {
			cs := make([]*matrix.Matrix[float32], len(acts))
			as := make([]*matrix.Matrix[float32], len(acts))
			bs := make([]*matrix.Matrix[float32], len(acts))
			outs := make([]*convnet.Tensor[float32], len(acts))
			for i, in := range acts {
				if _, err := timed("convnet.Im2Col", func() (err error) { bs[i], err = convnet.Im2Col(in, l.Spec); return err }); err != nil {
					return err
				}
				oh, ow := l.Spec.OutDims(in.H, in.W)
				outs[i] = convnet.NewTensor[float32](l.Spec.OutC, oh, ow)
				cs[i], as[i] = outs[i].AsMatrix(), l.Weights
			}
			gemm, err := timed("core.Executor.GemmBatch", func() error { _, err := ex.GemmBatch(cs, as, bs, false, false); return err })
			if err != nil {
				return fmt.Errorf("replay layer %d: %w", li+1, err)
			}
			timed("relu", func() error {
				for _, o := range outs {
					for j, v := range o.Data {
						if v < 0 {
							o.Data[j] = 0
						}
					}
				}
				return nil
			})
			if dnnPools[li] {
				timed("convnet.MaxPool2x2", func() error {
					for i := range outs {
						outs[i] = convnet.MaxPool2x2(outs[i])
					}
					return nil
				})
			}
			cp := matrix.New[float32](l.Spec.OutC, bs[0].Cols)
			bufA, bufB = replayParts(rec, &acct, gemm, calls, cfg, cp, l.Weights, bs[0], nil, bufA, bufB, sc)
			acts = outs
		}
		acct.replaySt.Add(st)
	}
	host.measure()

	engineCounters(r, obs.EngineStats{}, obs.EngineStats{}, calls)
	r.set("resident.hit_ratio", "share", 0)
	r.set("convnet.alloc_mb_per_image", "MiB", allocBytes/float64(calls*dnnBatch)/(1<<20))
	overhead := share(busyT.Seconds()/float64(calls), busyU.Seconds()/float64(h.n)) - 1
	return r.finishTrace("dnn-batch", &host, &acct, []*recorder{rec}, overhead)
}
