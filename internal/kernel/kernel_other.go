//go:build !amd64 || purego

package kernel

// f64Impls8x8 lists the f64 8×8 implementations in this build: only the
// pure-Go kernel.
var f64Impls8x8 = []impl8x8{{pure8x8F64, cpuFeatures{}}}

// detectCPU reports no features: this build has no assembly to select.
func detectCPU() cpuFeatures { return cpuFeatures{} }
