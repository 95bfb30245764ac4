package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/platform"
)

// TestEngineRejectsAliasedOutput: C sharing storage with A, on a small-tier
// shape that runs several CB blocks, must fail up front with C untouched —
// computed in place, later blocks would read A rows that earlier blocks had
// already overwritten and return a wrong C.
func TestEngineRejectsAliasedOutput(t *testing.T) {
	e, err := NewEngine(Options{Platform: platform.DetectHost(2), Name: "test-" + t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	a := matrix.New[float64](512, 512)
	b := matrix.New[float64](512, 512)
	a.Randomize(rng)
	b.Randomize(rng)
	keep := a.Clone()
	if _, err := GemmScaled(e, a, a, b, false, false, 1, 1); !errors.Is(err, core.ErrAliasedOutput) {
		t.Fatalf("C aliasing A: err = %v, want ErrAliasedOutput", err)
	}
	if !a.Equal(keep) {
		t.Fatal("rejected call modified C")
	}
	// Overlapping views of one backing array are aliasing too; disjoint
	// row ranges are not.
	whole := matrix.New[float64](96, 32)
	whole.Randomize(rng)
	if _, err := Gemm(e, whole.View(16, 0, 32, 32), whole.View(0, 0, 32, 32), b.View(0, 0, 32, 32)); !errors.Is(err, core.ErrAliasedOutput) {
		t.Fatalf("overlapping views: err = %v, want ErrAliasedOutput", err)
	}
	if _, err := Gemm(e, whole.View(64, 0, 32, 32), whole.View(0, 0, 32, 32), whole.View(32, 0, 32, 32)); err != nil {
		t.Fatalf("disjoint views of one array: %v", err)
	}
}

// TestEngineRejectsShortData: a matrix whose Data is shorter than Rows,
// Cols and Stride imply must fail with ErrInvalidOperand before any work is
// dispatched: on a pooled tier the out-of-range read would panic on a pool
// worker and kill the process.
func TestEngineRejectsShortData(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	a := matrix.New[float32](128, 128)
	b := matrix.New[float32](128, 128)
	c := matrix.New[float32](128, 128)
	if tier := e.TierFor(128, 128, 128, 4); tier == TierTiny {
		t.Fatalf("128³ f32 is %v, want a pooled tier", tier)
	}
	short := &matrix.Matrix[float32]{Rows: 128, Cols: 128, Stride: 128, Data: b.Data[: len(b.Data)-1 : len(b.Data)-1]}
	if _, err := Gemm(e, c, a, short); !errors.Is(err, core.ErrInvalidOperand) {
		t.Fatalf("short B data: err = %v, want ErrInvalidOperand", err)
	}
	narrow := &matrix.Matrix[float32]{Rows: 128, Cols: 128, Stride: 64, Data: a.Data}
	if _, err := Gemm(e, c, narrow, b); !errors.Is(err, core.ErrInvalidOperand) {
		t.Fatalf("stride < cols: err = %v, want ErrInvalidOperand", err)
	}
	shortC := &matrix.Matrix[float32]{Rows: 128, Cols: 128, Stride: 128, Data: c.Data[:100:100]}
	if _, err := GemmBatch(e, []*matrix.Matrix[float32]{c, shortC}, []*matrix.Matrix[float32]{a, a},
		[]*matrix.Matrix[float32]{b, b}); !errors.Is(err, core.ErrInvalidOperand) {
		t.Fatalf("short C in batch call 1: err = %v, want ErrInvalidOperand", err)
	}
	if err := RegisterB(e, "w", b); err != nil {
		t.Fatal(err)
	}
	shortA := &matrix.Matrix[float32]{Rows: 128, Cols: 128, Stride: 128, Data: a.Data[:128:128]}
	if _, err := GemmResident(e, c, shortA, "w"); !errors.Is(err, core.ErrInvalidOperand) {
		t.Fatalf("short A on the resident path: err = %v, want ErrInvalidOperand", err)
	}
	// Data must end at the last element; capacity beyond it does not count.
	// The tiny tier's direct path checks the same way.
	tiny := &matrix.Matrix[float32]{Rows: 8, Cols: 8, Stride: 8, Data: make([]float32, 60)}
	if _, err := Gemm(e, matrix.New[float32](8, 8), tiny, matrix.New[float32](8, 8)); !errors.Is(err, core.ErrInvalidOperand) {
		t.Fatalf("short A on the tiny tier: err = %v, want ErrInvalidOperand", err)
	}
}
