// Batched engine requests: one admission-queue slot, one executor lease, N
// multiplications. The paper's serving workload (DNN inference, Section 5)
// issues many uniform GEMMs against shared weights; dispatching them one by
// one pays admission, leasing and packing per call. A batch is classified
// once (by its widest call), admitted as a single request on that tier's
// core slice, runs on one executor (or direct scratch) lease, and streams
// its calls through the executor's request path, which carries
// shared-operand packed panels across calls. The flight recorder sees ONE
// record per batch, carrying the call count and the amortized per-call
// latency.
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// GemmBatch computes C[i] += A[i]×B[i] for every i as one engine request.
func GemmBatch[T matrix.Scalar](e *Engine, cs, as, bs []*matrix.Matrix[T]) (core.Stats, error) {
	return GemmBatchScaled(e, cs, as, bs, false, false, 1, 1)
}

// GemmBatchScaled computes C[i] = α·op(A[i])×op(B[i]) + β·C[i] for every i
// as one engine request: one admission, one lease, calls executed in order
// with results bit-exact to the equivalent sequence of GemmScaled calls.
// Transposes and scalars are batch-uniform. The batch dispatches on the
// tier of its widest call, so a ragged final batch never lands a too-large
// call on a too-small tier.
func GemmBatchScaled[T matrix.Scalar](e *Engine, cs, as, bs []*matrix.Matrix[T], transA, transB bool, alpha, beta T) (core.Stats, error) {
	return GemmBatchScaledFor(e, "", cs, as, bs, transA, transB, alpha, beta)
}

// GemmBatchScaledFor is GemmBatchScaled with a tenant label (see
// GemmScaledFor). The one-per-batch request record carries the label, the
// first call's dimensions, the call count and the amortized per-call
// latency.
func GemmBatchScaledFor[T matrix.Scalar](e *Engine, tenantLabel string, cs, as, bs []*matrix.Matrix[T], transA, transB bool, alpha, beta T) (core.Stats, error) {
	return serve(e, tenantLabel, "", &core.Request[T]{C: cs, A: as, B: bs,
		TransA: transA, TransB: transB, Alpha: alpha, Beta: beta, Batch: true})
}

// StridedBatch describes a uniform batch whose operands sit at constant
// element strides in flat backing slices — the im2col / attention layout
// where call i reads A at offset i·StrideA and so on. A zero stride shares
// that operand across the whole batch (it is materialized as one matrix, so
// the batch path packs it once); C must always advance, and a non-zero
// stride must cover the operand so calls never alias.
type StridedBatch[T matrix.Scalar] struct {
	Count   int // number of GEMMs
	M, K, N int // per-call dims: C[M×N] = A[M×K] × B[K×N], no transposes

	C, A, B                   []T
	StrideC, StrideA, StrideB int // elements between consecutive calls; 0 shares the operand
}

// Matrices materializes the batch as per-call matrix views suitable for
// GemmBatchScaled. Shared (stride-0) operands come back as one *Matrix
// repeated Count times — the pointer identity the batch pack reuse keys on.
func (sb StridedBatch[T]) Matrices() (cs, as, bs []*matrix.Matrix[T], err error) {
	if sb.Count <= 0 || sb.M <= 0 || sb.K <= 0 || sb.N <= 0 {
		return nil, nil, nil, fmt.Errorf("engine: strided batch needs positive count and dims, got count=%d M=%d K=%d N=%d",
			sb.Count, sb.M, sb.K, sb.N)
	}
	if sb.StrideC == 0 {
		return nil, nil, nil, fmt.Errorf("engine: strided batch C operand cannot be shared (StrideC=0)")
	}
	if cs, err = stridedViews(sb.C, sb.M, sb.N, sb.StrideC, sb.Count, "C"); err != nil {
		return nil, nil, nil, err
	}
	if as, err = stridedViews(sb.A, sb.M, sb.K, sb.StrideA, sb.Count, "A"); err != nil {
		return nil, nil, nil, err
	}
	if bs, err = stridedViews(sb.B, sb.K, sb.N, sb.StrideB, sb.Count, "B"); err != nil {
		return nil, nil, nil, err
	}
	return cs, as, bs, nil
}

// stridedViews carves count rows×cols views out of data at the given stride.
func stridedViews[T matrix.Scalar](data []T, rows, cols, stride, count int, name string) ([]*matrix.Matrix[T], error) {
	size := rows * cols
	if stride == 0 {
		if len(data) < size {
			return nil, fmt.Errorf("engine: strided batch %s has %d elements, shared %dx%d needs %d", name, len(data), rows, cols, size)
		}
		shared := matrix.FromSlice(rows, cols, data[:size])
		views := make([]*matrix.Matrix[T], count)
		for i := range views {
			views[i] = shared
		}
		return views, nil
	}
	if stride < size {
		return nil, fmt.Errorf("engine: strided batch %s stride %d < %dx%d operand size %d (calls would alias)", name, stride, rows, cols, size)
	}
	if need := (count-1)*stride + size; len(data) < need {
		return nil, fmt.Errorf("engine: strided batch %s has %d elements, %d calls at stride %d need %d", name, len(data), count, stride, need)
	}
	views := make([]*matrix.Matrix[T], count)
	for i := range views {
		off := i * stride
		views[i] = matrix.FromSlice(rows, cols, data[off:off+size])
	}
	return views, nil
}

// GemmBatchStrided computes C[i] = α·A[i]×B[i] + β·C[i] over a strided
// batch layout as one engine request (see StridedBatch and GemmBatchScaled).
func GemmBatchStrided[T matrix.Scalar](e *Engine, sb StridedBatch[T], alpha, beta T) (core.Stats, error) {
	return GemmBatchStridedFor(e, "", sb, alpha, beta)
}

// GemmBatchStridedFor is GemmBatchStrided with a tenant label.
func GemmBatchStridedFor[T matrix.Scalar](e *Engine, tenantLabel string, sb StridedBatch[T], alpha, beta T) (core.Stats, error) {
	cs, as, bs, err := sb.Matrices()
	if err != nil {
		return core.Stats{}, err
	}
	return GemmBatchScaledFor(e, tenantLabel, cs, as, bs, false, false, alpha, beta)
}

// GemmBatchResident computes C[i] += op(A[i])×B_id for every i against the
// resident operand registered under id, as one engine request with the
// operand pinned once for the whole batch.
func GemmBatchResident[T matrix.Scalar](e *Engine, cs, as []*matrix.Matrix[T], id string) (core.Stats, error) {
	return GemmBatchResidentScaled(e, cs, as, id, false, 1, 1)
}

// GemmBatchResidentScaled is the full resident batch entry point:
// C[i] = α·op(A[i])×B_id + β·C[i]. The operand is pinned before the first
// call and released after the last — eviction cannot split a batch — and
// every call is served from the tier's pre-packed panels with no B packing.
func GemmBatchResidentScaled[T matrix.Scalar](e *Engine, cs, as []*matrix.Matrix[T], id string, transA bool, alpha, beta T) (core.Stats, error) {
	return GemmBatchResidentScaledFor(e, "", cs, as, id, transA, alpha, beta)
}

// GemmBatchResidentScaledFor is GemmBatchResidentScaled with a tenant label.
func GemmBatchResidentScaledFor[T matrix.Scalar](e *Engine, tenantLabel string, cs, as []*matrix.Matrix[T], id string, transA bool, alpha, beta T) (core.Stats, error) {
	return serve(e, tenantLabel, id, &core.Request[T]{C: cs, A: as,
		TransA: transA, Alpha: alpha, Beta: beta, Batch: true})
}
