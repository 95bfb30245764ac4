package kernel

// The f64 8×8 tile has assembly implementations on amd64 (kernel_amd64.s):
// AVX-512F and AVX2+FMA. One of them, or the pure-Go kernel, is chosen once
// at init from CPUID and XCR0, so every tier, the GOTO baseline and the
// benchmarks call the same code and stay bit-identical to one another.
// Builds for other architectures, or with -tags purego, carry only the
// pure-Go kernel.

// cpuFeatures is what the 8×8 f64 dispatch needs to know about the host.
type cpuFeatures struct {
	avx2FMA bool // AVX2 and FMA, with XMM/YMM state enabled by the OS
	avx512F bool // AVX-512F, with opmask and ZMM state enabled by the OS
}

// coveredBy reports whether have includes every feature f asks for.
func (f cpuFeatures) coveredBy(have cpuFeatures) bool {
	return (!f.avx2FMA || have.avx2FMA) && (!f.avx512F || have.avx512F)
}

// impl8x8 is one f64 8×8 implementation and the features it needs.
type impl8x8 struct {
	k     Kernel[float64]
	needs cpuFeatures
}

var (
	pure8x8F64 = Kernel[float64]{Name: "unrolled8x8", MR: 8, NR: 8, F: kernel8x8[float64]}

	// hostCPU is detected once; best8x8F64 is the kernel it selects.
	hostCPU    = detectCPU()
	best8x8F64 = select8x8F64(hostCPU)
)

// select8x8F64 returns the fastest implementation that runs on a host with
// the features have.
func select8x8F64(have cpuFeatures) Kernel[float64] {
	for _, im := range f64Impls8x8 {
		if im.needs.coveredBy(have) {
			return im.k
		}
	}
	return pure8x8F64
}
