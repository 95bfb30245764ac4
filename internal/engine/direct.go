package engine

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/schedule"

	"repro/internal/core"
)

// DirectScratch is the tiny-GEMM fast path's working set: one packed panel
// per operand, a local C accumulator and a kernel edge tile. For problems
// whose whole footprint fits in L1 the CB-block machinery — block grids, the
// K-first schedule, pipeline slots, pool dispatch — costs more than the
// multiplication itself, so the direct path packs both operands once and
// runs the macro-kernel as a single mr×nr tile sweep on the calling
// goroutine.
//
// Numerically the path is the degenerate single-block CAKE execution: α is
// folded into the packed A panel, C accumulates into a zeroed local buffer
// and is added back once, and the per-element reduction runs k-ascending
// inside the microkernel — bit-identical to core.Gemm with an undivided K
// dimension (KC ≥ k) and the same register tile.
type DirectScratch[T matrix.Scalar] struct {
	kern    kernel.Kernel[T]
	packA   []T
	packB   []T
	bufC    []T
	scratch *kernel.Scratch[T]
}

// NewDirectScratch returns a direct-path working set for the given register
// tile. Buffers grow on demand and are retained across calls.
func NewDirectScratch[T matrix.Scalar](mr, nr int) *DirectScratch[T] {
	k := kernel.Best[T](mr, nr)
	return &DirectScratch[T]{kern: k, scratch: kernel.NewScratch[T](mr, nr)}
}

// Kernel returns the register tile the scratch packs for.
func (d *DirectScratch[T]) Kernel() kernel.Kernel[T] { return d.kern }

// GemmScaled computes C = α·op(A)×op(B) + β·C without blocking or worker
// dispatch: pack A (α folded) and B whole, zero a local accumulator, run one
// macro-kernel sweep with kc = k, add back into C.
func (d *DirectScratch[T]) GemmScaled(c, a, b *matrix.Matrix[T], transA, transB bool, alpha, beta T) (core.Stats, error) {
	r := core.Request[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a}, B: []*matrix.Matrix[T]{b},
		TransA: transA, TransB: transB, Alpha: alpha, Beta: beta}
	if err := r.Check(nil, nil); err != nil {
		return core.Stats{}, fmt.Errorf("engine: %w", err)
	}
	return d.run(&r, nil), nil
}

// run executes a checked request on the calling goroutine — the tiny tier's
// request path. bp, when non-nil, is the resident B side: the whole k×n
// operand already packed in d.Kernel().NR-column panels (the tiny-tier
// layout, see RegisterB), so no call packs B. Otherwise a call whose B is
// the previous call's (pointer equality) is served from the panel still in
// d.packB, counted in ReusedBElems and SharedBPacks. Results are bit-exact
// with the equivalent sequence of single calls: the packed bytes are
// identical, and every call runs the same body.
func (d *DirectScratch[T]) run(r *core.Request[T], bp []T) core.Stats {
	var agg core.Stats
	packedB := false // d.packB holds call i−1's packed B panel
	for i, c := range r.C {
		a := r.A[i]
		m, k, n := c.Rows, a.Cols, c.Cols
		if r.TransA {
			k = a.Rows
		}
		if bp != nil && i > 0 {
			agg.SharedBPacks++
		}
		if r.Beta == 0 {
			c.Zero()
		} else if r.Beta != 1 {
			c.Scale(r.Beta)
		}
		if r.Alpha == 0 {
			continue
		}
		t0 := time.Now()
		st := core.Stats{
			Grid:         schedule.Dims{Mb: 1, Nb: 1, Kb: 1},
			Blocks:       1,
			PackedAElems: int64(m) * int64(k),
			UnpackCElems: int64(m) * int64(n),
		}
		bElems := int64(k) * int64(n)
		panel := bp
		switch need := packing.PackedBSize(k, n, d.kern.NR); {
		case bp != nil:
			st.ResidentBElems = bElems
		case packedB && r.B[i] == r.B[i-1]:
			panel = d.packB[:need]
			st.ReusedBElems = bElems
			agg.SharedBPacks++
		default:
			if cap(d.packB) < need {
				d.packB = make([]T, need)
			}
			if r.TransB {
				panel = packing.PackBT(d.packB[:need], r.B[i], d.kern.NR)
			} else {
				panel = packing.PackB(d.packB[:need], r.B[i], d.kern.NR)
			}
			st.PackedBElems = bElems
			packedB = true
		}
		st.PackNanos, st.ComputeNanos = d.gemm(c, a, panel, r.TransA, r.Alpha, t0)
		agg.Add(st)
	}
	if r.Batch {
		agg.BatchCalls = len(r.C)
	}
	return agg
}

// gemm is the direct path's one body: C += α·op(A)×B against the whole B
// packed in bp. It packs A (α folded) whole, zeroes a local accumulator,
// runs one macro-kernel sweep with kc = k and adds the result back into C.
// Packing time is counted from t0, so a B pack just before the call is
// charged to it.
func (d *DirectScratch[T]) gemm(c, a *matrix.Matrix[T], bp []T, transA bool, alpha T, t0 time.Time) (packNs, computeNs int64) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if transA {
		k = a.Rows
	}
	needA := packing.PackedASize(m, k, d.kern.MR)
	needC := m * n
	if cap(d.packA) < needA {
		d.packA = make([]T, needA)
	}
	if cap(d.bufC) < needC {
		d.bufC = make([]T, needC)
	}
	var ap []T
	if transA {
		ap = packing.PackAT(d.packA[:needA], a, d.kern.MR, alpha)
	} else {
		ap = packing.PackA(d.packA[:needA], a, d.kern.MR, alpha)
	}
	cBlock := matrix.FromSlice(m, n, d.bufC[:needC])
	cBlock.Zero()
	packNs = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	packing.Macro(d.kern, k, ap, bp, cBlock, d.scratch)
	computeNs = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	packing.AddInto(c, cBlock)
	return packNs + time.Since(t0).Nanoseconds(), computeNs
}
