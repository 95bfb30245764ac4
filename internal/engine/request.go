// The engine's one request path. Every GEMM export — single, tenant-labelled,
// batched, strided and resident — builds a request and hands it to serve: a
// single call is a batch of one, and a resident call is a batch whose B side
// is the registered operand's pre-packed panels. serve writes exactly one
// flight-recorder record per request; a batch's record carries the call
// count and the amortized per-call latency.
package engine

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// Gemm computes C += A×B through the engine.
func Gemm[T matrix.Scalar](e *Engine, c, a, b *matrix.Matrix[T]) (core.Stats, error) {
	return GemmScaled(e, c, a, b, false, false, 1, 1)
}

// GemmT computes C += op(A)×op(B) with per-operand transposes.
func GemmT[T matrix.Scalar](e *Engine, c, a, b *matrix.Matrix[T], transA, transB bool) (core.Stats, error) {
	return GemmScaled(e, c, a, b, transA, transB, 1, 1)
}

// GemmScaled is the engine's full entry point: classify the problem, admit
// it against the core partition, run it down its tier's path on leased
// state. Safe for any number of concurrent callers.
func GemmScaled[T matrix.Scalar](e *Engine, c, a, b *matrix.Matrix[T], transA, transB bool, alpha, beta T) (core.Stats, error) {
	return GemmScaledFor(e, "", c, a, b, transA, transB, alpha, beta)
}

// GemmScaledFor is GemmScaled with a tenant label: the label rides on the
// request record and routes the request into any per-tenant SLO objectives
// declared in Options.Trace. An empty label is the anonymous tenant.
func GemmScaledFor[T matrix.Scalar](e *Engine, tenantLabel string, c, a, b *matrix.Matrix[T], transA, transB bool, alpha, beta T) (core.Stats, error) {
	return serve(e, tenantLabel, "", &core.Request[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a},
		B: []*matrix.Matrix[T]{b}, TransA: transA, TransB: transB, Alpha: alpha, Beta: beta})
}

// serve runs one request for a tenant and commits its flight-recorder
// record. A non-empty id names the registered operand that is the B side of
// every call (r.B stays empty).
func serve[T matrix.Scalar](e *Engine, tenant, id string, r *core.Request[T]) (core.Stats, error) {
	start := time.Now()
	rec := reqtrace.Record{
		ID:         e.trace.NextID(),
		StartNs:    start.UnixNano(),
		Tenant:     tenant,
		ResidentID: id,
		Outcome:    reqtrace.OutcomeUnset,
	}
	st, err := dispatch(e, &rec, id, r)
	e.finishRecord(&rec, start, st, err)
	return st, err
}

// dispatch validates a request, classifies it by its widest call, pins a
// resident operand for the whole request and runs it down the tier's path.
func dispatch[T matrix.Scalar](e *Engine, rec *reqtrace.Record, id string, r *core.Request[T]) (core.Stats, error) {
	if id != "" {
		if e.closedFast.Load() {
			return core.Stats{}, ErrClosed
		}
		if err := r.CheckShape(true); err != nil {
			return core.Stats{}, err
		}
	}
	h, err := acquireOperand[T](e, id)
	if err != nil {
		rec.Resident = reqtrace.ResidentMiss
		return core.Stats{}, err
	}
	defer h.Release()
	var op *residentOperand[T]
	var rb *core.ResidentB[T]
	if h != nil {
		rec.Resident = reqtrace.ResidentHit
		op = h.op
		rb = op.large // the operand's logical extent, for the checks
	}
	if r.Batch {
		rec.BatchCalls = int32(len(r.C))
	}
	// The request holds its admission slot and lease for every call, so
	// dispatch must satisfy the *widest* call's cache arithmetic: tiers are
	// ordered by footprint and TierFor is monotone in it.
	elemBytes := int(unsafe.Sizeof(*new(T)))
	t := TierTiny
	if err := r.Check(rb, func(i, m, k, n int) {
		if i == 0 {
			rec.M, rec.K, rec.N = int32(m), int32(k), int32(n)
		}
		t = max(t, e.TierFor(m, k, n, elemBytes))
	}); err != nil {
		return core.Stats{}, fmt.Errorf("engine: %w", err)
	}
	var tiny []T
	if op != nil {
		// TierFor's arithmetic guarantees the tier's layout was packed (see
		// residentOperand); fall through to the next tier up if a
		// pathological platform geometry ever breaks that.
		if t == TierTiny && op.tiny == nil {
			t = TierSmall
		}
		if t == TierSmall && op.small == nil {
			t = TierLarge
		}
		tiny = op.tiny
		if t == TierSmall {
			rb = op.small
		}
	}
	rec.Tier = t.String()
	e.tierHits[t].Add(1)

	var st core.Stats
	if t == TierTiny {
		st, err = runDirect(e, rec, func(d *DirectScratch[T]) core.Stats { return d.run(r, tiny) })
	} else {
		st, err = runPooled(e, t, rec, func(ex *core.Executor[T]) (core.Stats, error) { return ex.Run(r, rb) })
	}
	if err != nil {
		return st, err
	}
	if op != nil {
		e.resident.AccountAvoided(st.ResidentBElems * int64(elemBytes))
	}
	return st, nil
}
