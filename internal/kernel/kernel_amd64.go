//go:build !purego

package kernel

// f64Impls8x8 lists the f64 8×8 implementations in this build, fastest
// first. The pure-Go kernel needs no features and is always last.
var f64Impls8x8 = []impl8x8{
	{Kernel[float64]{Name: "avx512-8x8", MR: 8, NR: 8, F: avx512Kernel8x8}, cpuFeatures{avx512F: true}},
	{Kernel[float64]{Name: "avx2-8x8", MR: 8, NR: 8, F: avx2Kernel8x8}, cpuFeatures{avx2FMA: true}},
	{pure8x8F64, cpuFeatures{}},
}

// CPUID and XCR0 bits the dispatch reads.
const (
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV is usable
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX

	xcr0YMM = 1<<1 | 1<<2                  // XMM and upper YMM state
	xcr0ZMM = xcr0YMM | 1<<5 | 1<<6 | 1<<7 // + opmask, upper ZMM0–15, ZMM16–31
)

// detectCPU reads CPUID and XCR0.
func detectCPU() cpuFeatures {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return cpuFeatures{}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 {
		return cpuFeatures{} // XGETBV would fault
	}
	_, ebx7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return decodeCPU(ecx1, ebx7, xcr0)
}

// decodeCPU turns CPUID leaf 1 ECX, leaf 7 EBX and XCR0 into features. A
// feature counts only when the CPU reports it and the OS saves the
// register state it needs.
func decodeCPU(ecx1, ebx7, xcr0 uint32) cpuFeatures {
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return cpuFeatures{}
	}
	return cpuFeatures{
		avx2FMA: xcr0&xcr0YMM == xcr0YMM && ebx7&cpuidAVX2 != 0 && ecx1&cpuidFMA != 0,
		avx512F: xcr0&xcr0ZMM == xcr0ZMM && ebx7&cpuidAVX512F != 0,
	}
}

// avx512Kernel8x8 is the AVX-512F f64 8×8 kernel: one zmm accumulator per
// C row, B rows loaded once and A broadcast from memory into the FMA.
//
//cake:hotpath
func avx512Kernel8x8(kc int, a, b []float64, c []float64, ldc int) {
	if kc <= 0 {
		return
	}
	// Bounds are checked here, before any pointer reaches assembly, so a
	// short panel or C panics like the pure-Go kernel instead of touching
	// memory past the slice.
	_ = a[8*kc-1]
	_ = b[8*kc-1]
	_ = c[7*ldc+7]
	gemm8x8AVX512(kc, &a[0], &b[0], &c[0], ldc)
}

// avx2Kernel8x8 is the AVX2+FMA f64 8×8 kernel: two 4-row passes, each
// with eight ymm accumulators.
//
//cake:hotpath
func avx2Kernel8x8(kc int, a, b []float64, c []float64, ldc int) {
	if kc <= 0 {
		return
	}
	_ = a[8*kc-1]
	_ = b[8*kc-1]
	_ = c[7*ldc+7]
	gemm8x8AVX2(kc, &a[0], &b[0], &c[0], ldc)
}

// gemm8x8AVX512 computes C[0:8, 0:8] += Aᵖ·Bᵖ for kc ≥ 1 (kernel_amd64.s).
//
//cake:hotpath-exempt assembly body: allocates nothing; go vet asmdecl checks its frame and the Go wrapper checks bounds
//go:noescape
func gemm8x8AVX512(kc int, a, b, c *float64, ldc int)

// gemm8x8AVX2 computes C[0:8, 0:8] += Aᵖ·Bᵖ for kc ≥ 1 (kernel_amd64.s).
//
//cake:hotpath-exempt assembly body: allocates nothing; go vet asmdecl checks its frame and the Go wrapper checks bounds
//go:noescape
func gemm8x8AVX2(kc int, a, b, c *float64, ldc int)

// cpuid executes CPUID with the given leaf and subleaf.
//
//cake:hotpath-exempt assembly body: runs once at package init
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled register state.
//
//cake:hotpath-exempt assembly body: runs once at package init
func xgetbv() (eax, edx uint32)
