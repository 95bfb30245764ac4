package main

import (
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/packing"
)

// layerAcct accumulates the counters the layers return (core.Stats) for
// every request of a traced window, for the replayed sample the core.Stats
// of its requests, and the pack and kernel rates of the replays. The time
// attribution of the replayed sample comes from its spans (see replayed).
type layerAcct struct {
	st    core.Stats // every request in the traced window
	gemms int64      // GEMM calls those requests made
	flops float64    // useful 2mnk FLOPs of those requests
	wall  int64      // Σ request latencies, ns

	replaySt core.Stats // Stats of the replayed requests
	packA    rate
	packB    rate
	sweep    rate // kernel sweep over the replayed panels, in FLOPs
}

// rate accumulates an amount of work and the nanoseconds it took.
type rate struct{ amount, ns float64 }

func (r *rate) add(amount float64, d time.Duration) { r.amount += amount; r.ns += float64(d) }
func (r rate) perNs() float64                       { return share(r.amount, r.ns) }

// set publishes the per-layer metrics the accounting and the replayed
// sample's spans support.
func (a *layerAcct) set(r *run, sp sample) {
	wall := float64(a.wall)
	st := a.st
	r.set("kernel.compute_share", "share", share(float64(st.ComputeNanos), wall))
	r.set("core.pack_share", "share", share(float64(st.PackNanos), wall))
	r.set("core.overlap_share", "share", st.OverlapShare())
	r.set("core.blocks_per_gemm", "count", share(float64(st.Blocks), float64(a.gemms)))
	covered := float64(st.PackNanos + st.ComputeNanos - st.OverlapNanos)
	r.set("core.residual_share", "share", 1-share(covered, wall))
	packed := float64(st.PackedAElems + st.PackedBElems)
	reused := float64(st.ReusedAElems + st.ReusedBElems + st.ResidentBElems)
	r.set("packing.elems_per_kflop", "count", share(packed, a.flops/1000))
	r.set("packing.reuse_ratio", "share", share(reused, packed+reused))
	r.set("packing.pack_a_gbps", "GB/s", a.packA.perNs())
	r.set("packing.pack_b_gbps", "GB/s", a.packB.perNs())
	r.set("kernel.sweep_gflops", "GFLOP/s", a.sweep.perNs())

	rs := a.replaySt
	im2col := sp.self["convnet.Im2Col"]
	activations := sp.self["relu"] + sp.self["convnet.MaxPool2x2"]
	attributed := sp.outer + im2col + activations + rs.PackNanos + rs.ComputeNanos - rs.OverlapNanos
	replayWall := float64(sp.wall)
	r.set("trace.residual_share", "share", 1-share(float64(attributed), replayWall))
	r.set("trace.outer_share", "share", share(float64(sp.outer), replayWall))
	r.set("convnet.im2col_share", "share", share(float64(im2col), replayWall))
	r.notef("traced window: %d GEMMs, wall %.3fs; replayed sample wall %.3fs: outer layer %.1f%%, pack %.1f%%, kernel %.1f%%, im2col %.1f%%, relu+pool %.1f%%",
		a.gemms, wall/1e9, replayWall/1e9,
		100*share(float64(sp.outer), replayWall),
		100*share(float64(rs.PackNanos-rs.OverlapNanos), replayWall),
		100*share(float64(rs.ComputeNanos), replayWall),
		100*share(float64(im2col), replayWall),
		100*share(float64(activations), replayWall))
}

// finishTrace publishes what every traced run reports once its window is
// done: the layer accounting, self time per span name, the tracing
// overhead, the host calibration, then the isolated layer probes; and it
// writes the spans out.
func (r *run) finishTrace(workload string, host *hostProbe, acct *layerAcct, recs []*recorder, overhead float64) error {
	sp := replayed(recs)
	acct.set(r, sp)
	r.noteSelfTimes(sp)
	r.set("trace.overhead_share", "share", overhead)
	host.set(r)
	if err := layerProbes(r); err != nil {
		return err
	}
	return writeSpans(r.spanPath(workload), recs)
}

// replayParts redoes one GEMM's packing and kernel work one layer below the
// executor, single-threaded: for each kc slab of K (kc from the executor's
// Config), packing.PackA and packing.PackB of the slab, then packing.Macro
// over the whole C. bp, when non-nil, is a B already packed for kc = k (the
// resident case: no B pack to replay). Each call is a span under parent, the
// span of the replayed call that packs and multiplies these panels.
func replayParts[T matrix.Scalar](rec *recorder, acct *layerAcct, parent int, req int64, cfg core.Config,
	c, a, b *matrix.Matrix[T], bp []T, bufA, bufB []T, sc *kernel.Scratch[T]) ([]T, []T) {
	m, k, n := a.Rows, a.Cols, c.Cols
	kern := kernel.Best[T](cfg.MR, cfg.NR)
	elem := float64(unsafe.Sizeof(*new(T)))
	kc := min(cfg.KC, k)
	if bp != nil {
		kc = k
	}
	bufA = grow(bufA, packing.PackedASize(m, kc, cfg.MR))
	if bp == nil {
		bufB = grow(bufB, packing.PackedBSize(kc, n, cfg.NR))
	}
	for k0 := 0; k0 < k; k0 += kc {
		d := min(kc, k-k0)
		t0 := time.Now()
		s := rec.begin("packing.PackA", parent, req)
		ap := packing.PackA(bufA, a.View(0, k0, m, d), cfg.MR, 1)
		rec.end(s)
		acct.packA.add(float64(m*d)*elem, time.Since(t0))
		panels := bp
		if panels == nil {
			t0 = time.Now()
			s = rec.begin("packing.PackB", parent, req)
			panels = packing.PackB(bufB, b.View(k0, 0, d, n), cfg.NR)
			rec.end(s)
			acct.packB.add(float64(d*n)*elem, time.Since(t0))
		}
		t0 = time.Now()
		s = rec.begin("kernel.Macro", parent, req)
		packing.Macro(kern, d, ap, panels, c, sc)
		rec.end(s)
		acct.sweep.add(flopsOf(m, d, n), time.Since(t0))
	}
	return bufA, bufB
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
