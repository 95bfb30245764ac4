package core

import (
	"errors"
	"testing"

	"repro/internal/matrix"
)

func TestCheckGemm(t *testing.T) {
	a := matrix.New[float32](4, 6)
	b := matrix.New[float32](6, 5)
	c := matrix.New[float32](4, 5)
	if m, k, n, err := CheckGemm(c, a, b, false, false, 0, 0); err != nil || m != 4 || k != 6 || n != 5 {
		t.Fatalf("valid call: %d %d %d %v", m, k, n, err)
	}
	// Transposed storage and a resident B (nil matrix, explicit extent).
	if m, k, n, err := CheckGemm(c, a.Transpose(), nil, true, false, 6, 5); err != nil || m != 4 || k != 6 || n != 5 {
		t.Fatalf("transposed A, resident B: %d %d %d %v", m, k, n, err)
	}
	// Empty operands reference no elements: no data needed, nothing aliases.
	empty := &matrix.Matrix[float32]{Rows: 4, Cols: 0}
	if _, _, _, err := CheckGemm(&matrix.Matrix[float32]{Rows: 4, Cols: 5, Stride: 5, Data: c.Data},
		empty, &matrix.Matrix[float32]{Rows: 0, Cols: 5}, false, false, 0, 0); err != nil {
		t.Fatalf("k = 0: %v", err)
	}
	for _, tc := range []struct {
		name    string
		c, a, b *matrix.Matrix[float32]
		want    error
	}{
		{"dims", c, a, matrix.New[float32](5, 5), ErrInvalidOperand},
		{"negative", c, &matrix.Matrix[float32]{Rows: 4, Cols: -1}, b, ErrInvalidOperand},
		{"stride", c, &matrix.Matrix[float32]{Rows: 4, Cols: 6, Stride: 5, Data: a.Data}, b, ErrInvalidOperand},
		{"short data", c, a, &matrix.Matrix[float32]{Rows: 6, Cols: 5, Stride: 5, Data: b.Data[:29]}, ErrInvalidOperand},
		{"C is A", a, a, matrix.New[float32](6, 6), ErrAliasedOutput},
		{"C inside B", b.View(1, 0, 4, 5), a, b, ErrAliasedOutput},
	} {
		if _, _, _, err := CheckGemm(tc.c, tc.a, tc.b, false, false, 0, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A and B may share storage: both are only read.
	sq := matrix.New[float32](6, 6)
	if _, _, _, err := CheckGemm(matrix.New[float32](6, 6), sq, sq, false, true, 0, 0); err != nil {
		t.Fatalf("A = B: %v", err)
	}
}
