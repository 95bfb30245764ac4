// Package hotcover seeds coverage cases for the hotcover analyzer. The
// companion test synthesizes a corpus CPU profile (via
// experiments.WriteProfile) whose frames reference these functions by their
// runtime names; the analyzer must demand annotation on the hot ones,
// accept explicit exemptions, flag never-sampled annotations as stale, and
// ignore frames whose functions no longer exist.
package hotcover

// HotAnnotated is hot in the synthetic profile and correctly annotated.
//
//cake:hotpath
func HotAnnotated(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// HotUnannotated is hot but carries no directive: the coverage gap hotcover
// exists to catch.
func HotUnannotated(xs []float64) float64 { // want `HotUnannotated is hot in committed profiles .* carries neither //cake:hotpath nor //cake:hotpath-exempt`
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Ring exercises method-frame matching: the profile spells the frame
// (*Ring).Push with a generic-free receiver.
type Ring struct {
	buf []int
	n   int
}

func (r *Ring) Push(v int) { // want `Push is hot in committed profiles`
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

// HotGeneric is sampled as HotGeneric[go.shape.float64]; normalization must
// attribute the instantiation to this declaration.
func HotGeneric[T ~float32 | ~float64](xs []T) T { // want `HotGeneric is hot in committed profiles`
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// HotExempt is hot through its worker closure (frame HotExempt.func1) but
// deliberately allocates per call and says so; the exemption satisfies the
// coverage requirement.
//
//cake:hotpath-exempt per-batch setup allocation, amortized over the batch
func HotExempt(n int) func() int {
	return func() int { return n * 2 }
}

// ColdAnnotated never appears in any profile: a stale annotation, reported
// as an advisory.
//
//cake:hotpath
func ColdAnnotated(a, b int) int { // want `ColdAnnotated is annotated //cake:hotpath but has zero samples`
	return a*31 + b
}

// Warm appears in the profile but below the share threshold; no directive
// is required.
func Warm(a int) int {
	return a + 1
}

// Functions implemented in assembly (hotcover.s): no pass can inspect their
// bodies, so a hot one needs a reasoned exemption. (//cake:hotpath on a
// bodyless function is escapecheck's finding; see its fixture.)

// HotAsm is hot and unexempted.
func HotAsm(n int) int // want `HotAsm has no Go body and is hot in committed profiles`

// HotAsmBareExempt is hot and exempt, but gives no reason.
//
//cake:hotpath-exempt
func HotAsmBareExempt(n int) int // want `HotAsmBareExempt has no Go body and is hot`

// HotAsmExempt is hot and says why it is safe: accepted.
//
//cake:hotpath-exempt assembly body: allocates nothing
func HotAsmExempt(n int) int

// ColdAsm is never sampled: nothing to report.
func ColdAsm(n int) int
