package core

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/matrix"
)

var (
	// ErrInvalidOperand reports a call whose operand views are malformed
	// (negative extent, Stride < Cols, Data too short for Rows, Cols and
	// Stride) or whose dimensions do not compose into a GEMM.
	ErrInvalidOperand = errors.New("core: invalid GEMM operand")
	// ErrAliasedOutput reports an output C whose referenced elements overlap
	// A's or B's. Reference BLAS forbids the aliasing: C is scaled and
	// written while A and B are still being read.
	ErrAliasedOutput = errors.New("core: GEMM output C overlaps an input operand")
)

// CheckGemm validates the operands of one call C = α·op(A)×op(B) + β·C and
// returns its logical dimensions: op(A) is m×k, op(B) k×n and C m×n. A nil b
// stands for a pre-packed resident B of logical extent rk×rn (both ignored
// when b is set). Every GEMM entry point runs it before touching data, so a
// bad view fails here with a typed error instead of panicking on a pool
// worker or returning a wrong C.
func CheckGemm[T matrix.Scalar](c, a, b *matrix.Matrix[T], transA, transB bool, rk, rn int) (m, k, n int, err error) {
	m, k = a.Rows, a.Cols
	if transA {
		m, k = k, m
	}
	kb, n := rk, rn
	if b != nil {
		kb, n = b.Rows, b.Cols
		if transB {
			kb, n = n, kb
		}
	}
	if k != kb || c.Rows != m || c.Cols != n {
		return 0, 0, 0, fmt.Errorf("%w: dims C[%dx%d] = op(A)[%dx%d] x op(B)[%dx%d]",
			ErrInvalidOperand, c.Rows, c.Cols, m, k, kb, n)
	}
	if err = checkView("C", c); err == nil {
		err = checkView("A", a)
	}
	if err == nil && b != nil {
		err = checkView("B", b)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if overlaps(c, a) || (b != nil && overlaps(c, b)) {
		return 0, 0, 0, ErrAliasedOutput
	}
	return m, k, n, nil
}

// checkView rejects a view whose referenced elements do not fit its Data.
func checkView[T matrix.Scalar](name string, x *matrix.Matrix[T]) error {
	switch {
	case x.Rows < 0 || x.Cols < 0:
		return fmt.Errorf("%w: %s is %dx%d", ErrInvalidOperand, name, x.Rows, x.Cols)
	case x.Rows == 0 || x.Cols == 0:
		return nil
	case x.Stride < x.Cols:
		return fmt.Errorf("%w: %s stride %d < %d columns", ErrInvalidOperand, name, x.Stride, x.Cols)
	case len(x.Data) < (x.Rows-1)*x.Stride+x.Cols:
		return fmt.Errorf("%w: %s data has %d elements, %dx%d at stride %d needs %d",
			ErrInvalidOperand, name, len(x.Data), x.Rows, x.Cols, x.Stride, (x.Rows-1)*x.Stride+x.Cols)
	}
	return nil
}

// overlaps reports whether the address ranges spanned by two views'
// referenced elements intersect. Ranges, not elements: interleaved views of
// one backing array (say, alternate column blocks) count as overlapping.
func overlaps[T matrix.Scalar](x, y *matrix.Matrix[T]) bool {
	xl, xh := addrRange(x)
	yl, yh := addrRange(y)
	return xl < yh && yl < xh
}

// addrRange returns [lo, hi) of a checked view's referenced elements; empty
// for an empty view.
func addrRange[T matrix.Scalar](x *matrix.Matrix[T]) (lo, hi uintptr) {
	if x.Rows == 0 || x.Cols == 0 {
		return 0, 0
	}
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(x.Data)))
	return lo, lo + uintptr((x.Rows-1)*x.Stride+x.Cols)*unsafe.Sizeof(x.Data[0])
}
