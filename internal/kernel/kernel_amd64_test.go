//go:build !purego

package kernel

import "testing"

// TestDecodeCPU: a feature needs both the CPUID bit and the OS-enabled
// register state, so a CPU with AVX-512F under an OS that does not save
// ZMM state gets the AVX2 kernel, and one without FMA gets pure Go.
func TestDecodeCPU(t *testing.T) {
	const (
		ecx1   = cpuidOSXSAVE | cpuidAVX | cpuidFMA
		ebx7   = cpuidAVX2 | cpuidAVX512F
		allXCR = xcr0ZMM
	)
	cases := []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             string
	}{
		{"avx512 cpu and os", ecx1, ebx7, allXCR, "avx512-8x8"},
		{"os without zmm state", ecx1, ebx7, xcr0YMM, "avx2-8x8"},
		{"os without opmask state", ecx1, ebx7, allXCR &^ (1 << 5), "avx2-8x8"},
		{"cpu without avx512f", ecx1, cpuidAVX2, allXCR, "avx2-8x8"},
		{"cpu without fma", ecx1 &^ cpuidFMA, cpuidAVX2, allXCR, "unrolled8x8"},
		{"cpu without avx2", ecx1, 0, allXCR, "unrolled8x8"},
		{"os without ymm state", ecx1, ebx7, 1, "unrolled8x8"},
		{"no osxsave", ecx1 &^ cpuidOSXSAVE, ebx7, allXCR, "unrolled8x8"},
		{"no avx", ecx1 &^ cpuidAVX, ebx7, allXCR, "unrolled8x8"},
	}
	for _, c := range cases {
		if got := select8x8F64(decodeCPU(c.ecx1, c.ebx7, c.xcr0)).Name; got != c.want {
			t.Errorf("%s: selected %s, want %s", c.name, got, c.want)
		}
	}
}
