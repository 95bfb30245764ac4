// The executor's one request path. Every entry point — single, batched,
// resident and resident-batched — is a Request: a single call is a batch of
// one, and a resident call is a batch whose B side is a pre-packed
// ResidentB. The path takes the single-flight guard once, validates every
// call before any compute starts, and streams the calls through run(). The
// paper's motivating workload (Section 5: DNN inference) multiplies many
// activation matrices against few shared weight matrices, so a B operand
// shared by the entire batch (pointer equality) is packed ONCE into the
// resident panel layout and every call is served from it; operands shared
// only by adjacent calls carry their packed panel keys forward instead.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/matrix"
)

// ErrBatchShape is returned when the slices of a batched call disagree in
// length or the batch is empty.
var ErrBatchShape = errors.New("core: batch call slices must be non-empty and of equal length")

// Request is one executor (or engine) request: C[i] = α·op(A[i])×op(B[i]) +
// β·C[i] for every i, in order. Transposes and scalars are request-wide. A
// resident request leaves B empty: its B side is a pre-packed operand the
// caller passes alongside (TransB unused).
//
// The B side is kept out of the struct, and so are the engine's labels, on
// purpose: escape analysis does not tell fields apart, so one pointer field
// stored on the heap would move the one-element slices of every single call
// to the heap with it.
type Request[T matrix.Scalar] struct {
	C, A, B        []*matrix.Matrix[T]
	TransA, TransB bool
	Alpha, Beta    T
	// Batch marks a batch entry point: its Stats report BatchCalls. Single
	// calls leave it false and report BatchCalls = 0.
	Batch bool
}

// Check validates the request's shape and every call's operands before
// anything runs, against rb's extent when the B side is resident (rb is
// only read); visit, when non-nil, sees each valid call's logical
// dimensions.
func (r *Request[T]) Check(rb *ResidentB[T], visit func(i, m, k, n int)) error {
	if err := r.CheckShape(rb != nil); err != nil {
		return err
	}
	var rk, rn int
	var b *matrix.Matrix[T]
	if rb != nil {
		rk, rn = rb.Dims()
	}
	for i := range r.C {
		if rb == nil {
			b = r.B[i]
		}
		m, k, n, err := CheckGemm(r.C[i], r.A[i], b, r.TransA, r.TransB, rk, rn)
		if err != nil {
			if r.Batch {
				return fmt.Errorf("batch call %d: %w", i, err)
			}
			return err
		}
		if visit != nil {
			visit(i, m, k, n)
		}
	}
	return nil
}

// CheckShape fails with ErrBatchShape unless the request has at least one
// call and its slices agree in length; residentB says B is not a slice.
func (r *Request[T]) CheckShape(residentB bool) error {
	if len(r.C) == 0 || len(r.A) != len(r.C) || (!residentB && len(r.B) != len(r.C)) {
		return fmt.Errorf("%w: len(C)=%d len(A)=%d len(B)=%d", ErrBatchShape, len(r.C), len(r.A), len(r.B))
	}
	return nil
}

// Gemm computes C += A×B using CB blocks and the K-first schedule.
func (e *Executor[T]) Gemm(c, a, b *matrix.Matrix[T]) (Stats, error) {
	return e.GemmT(c, a, b, false, false)
}

// GemmT computes C += op(A)×op(B) where op transposes its operand when the
// corresponding flag is set: A is stored K×M when transA, B is stored N×K
// when transB. Transposition happens during packing (the packed panel
// layout is storage-order oblivious), so there is no extra copy.
func (e *Executor[T]) GemmT(c, a, b *matrix.Matrix[T], transA, transB bool) (Stats, error) {
	return e.GemmScaled(c, a, b, transA, transB, 1, 1)
}

// GemmScaled computes the full BLAS gemm update C = α·op(A)×op(B) + β·C.
// β scales C once up front (β = 0 clears it without reading); α is folded
// into the packed A panels, so the hot loops are untouched when α = 1.
func (e *Executor[T]) GemmScaled(c, a, b *matrix.Matrix[T], transA, transB bool, alpha, beta T) (Stats, error) {
	return e.do(&Request[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a}, B: []*matrix.Matrix[T]{b},
		TransA: transA, TransB: transB, Alpha: alpha, Beta: beta}, nil)
}

// GemmResident computes C = α·op(A)×B + β·C against a pre-packed resident B,
// skipping B packing entirely: blocks read panel cells straight out of rb.
// Results are bit-exact with GemmScaled over the same operand — the strip
// decomposition, offsets and accumulation order are unchanged, only the
// bytes' provenance differs.
func (e *Executor[T]) GemmResident(c, a *matrix.Matrix[T], rb *ResidentB[T], transA bool, alpha, beta T) (Stats, error) {
	return e.do(&Request[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a},
		TransA: transA, Alpha: alpha, Beta: beta}, rb)
}

// GemmBatch computes C[i] += op(A[i])×op(B[i]) for every i under one
// executor acquisition. See GemmBatchScaled.
func (e *Executor[T]) GemmBatch(cs, as, bs []*matrix.Matrix[T], transA, transB bool) (Stats, error) {
	return e.GemmBatchScaled(cs, as, bs, transA, transB, 1, 1)
}

// GemmBatchScaled computes C[i] = α·op(A[i])×op(B[i]) + β·C[i] for every i.
// The executor is acquired once for the whole batch (a concurrent caller
// sees ErrInUse exactly as for one long call), every call's dimensions are
// validated before any compute starts, and calls execute in order with
// results bit-exact to the equivalent sequence of GemmScaled calls.
//
// When every call reuses the same B matrix (the DNN shared-weights case),
// the batch packs it once into the resident panel layout and serves all N
// calls from it: Stats.PackedBElems carries the one pack, ReusedBElems the
// N−1 elided ones, SharedBPacks the sharing calls. When an operand is shared
// only between adjacent calls, its packed panel keys survive into the next
// call instead (ReusedAElems/ReusedBElems count whatever the panel cache
// could hold onto).
func (e *Executor[T]) GemmBatchScaled(cs, as, bs []*matrix.Matrix[T], transA, transB bool, alpha, beta T) (Stats, error) {
	return e.do(&Request[T]{C: cs, A: as, B: bs, TransA: transA, TransB: transB, Alpha: alpha, Beta: beta, Batch: true}, nil)
}

// GemmBatchResident computes C[i] = α·op(A[i])×B + β·C[i] for every i, with
// the shared B side served from a pre-packed resident operand for the whole
// batch — the batched form of GemmResident. rb must be compatible with the
// executor's configuration and stay alive (pinned) until the call returns;
// every call's k and n must match rb's dimensions.
func (e *Executor[T]) GemmBatchResident(cs, as []*matrix.Matrix[T], rb *ResidentB[T], transA bool, alpha, beta T) (Stats, error) {
	return e.do(&Request[T]{C: cs, A: as, TransA: transA, Alpha: alpha, Beta: beta, Batch: true}, rb)
}

// Run executes a request on the executor; rb, when non-nil, is the
// resident B side of every call (see Request).
func (e *Executor[T]) Run(r *Request[T], rb *ResidentB[T]) (Stats, error) { return e.do(r, rb) }

// do is the executor's one request path.
func (e *Executor[T]) do(r *Request[T], rb *ResidentB[T]) (Stats, error) {
	if rb != nil {
		if err := rb.CompatibleWith(e.cfg); err != nil {
			return Stats{}, err
		}
	}
	if err := r.Check(rb, nil); err != nil {
		return Stats{}, err
	}
	if !e.inUse.CompareAndSwap(false, true) {
		return Stats{}, ErrInUse
	}
	defer e.inUse.Store(false)

	var agg Stats
	// One B for the whole batch: the panel cache's few slots cannot hold a
	// multi-block operand across calls, so slot-key carrying alone degrades
	// to repacking every block. Pack the shared operand once into the
	// resident layout — the same bytes the per-call pack would produce, so
	// results stay bit-exact — and serve all N calls from it. (With α = 0
	// the multiply never reads B; skip the pack.)
	sharedB := rb == nil && len(r.C) > 1 && r.Alpha != 0
	for i := 1; sharedB && i < len(r.B); i++ {
		sharedB = r.B[i] == r.B[0]
	}
	if sharedB {
		t0 := time.Now()
		var err error
		if rb, err = PackResidentB(e.cfg, r.B[0], r.TransB); err != nil {
			return Stats{}, fmt.Errorf("core: batch shared-B pack: %w", err)
		}
		agg.PackNanos = time.Since(t0).Nanoseconds()
	}

	// A resident pack already applied any B transpose.
	e.transA, e.transB, e.alpha = r.TransA, r.TransB && rb == nil, r.Alpha
	e.resB = rb
	defer func() {
		e.resB = nil
		e.keepA, e.keepB = false, false
	}()
	for i, c := range r.C {
		// Panel keys are only meaningful against one operand set; carry an
		// operand's keys forward only when the next call reuses the *same*
		// matrix (identical pointer ⇒ identical packed bytes for identical
		// coordinates — transposes and α are request-wide). A resident B
		// holds no slots, so only A keys can carry there.
		e.keepA = i > 0 && r.A[i] == r.A[i-1]
		e.keepB = rb == nil && i > 0 && r.B[i] == r.B[i-1]
		if e.keepB || (rb != nil && i > 0) {
			agg.SharedBPacks++
		}
		k := r.A[i].Cols
		if r.TransA {
			k = r.A[i].Rows
		}
		var b *matrix.Matrix[T]
		if rb == nil {
			b = r.B[i]
		}
		agg.Add(e.run(c, r.A[i], b, c.Rows, k, c.Cols, r.Alpha, r.Beta))
	}
	if sharedB {
		// Re-bucket the accounting to what physically happened: one real
		// pack (charged to the batch), N−1 packs elided by batch-local
		// reuse; "resident" stays reserved for cross-request residency.
		perCall := agg.ResidentBElems / int64(len(r.C))
		agg.PackedBElems += perCall
		agg.ReusedBElems += agg.ResidentBElems - perCall
		agg.ResidentBElems = 0
	}
	if r.Batch {
		agg.BatchCalls = len(r.C)
	}
	return agg, nil
}
