package escapecheck

// Functions implemented in assembly (bodyless.s): the compiler's escape
// analysis never sees their bodies, so //cake:hotpath on one is a promise
// escapecheck cannot keep.

// asmAnnotated claims the hot-path contract that no pass can check.
//
//cake:hotpath
//go:noescape
func asmAnnotated(n int, p *float64) // want `asmAnnotated is annotated //cake:hotpath but has no Go body`

// asmBareExempt carries both directives but gives the exemption no reason,
// which does not excuse it.
//
//cake:hotpath
//cake:hotpath-exempt
func asmBareExempt(n int, p *float64) // want `asmBareExempt is annotated //cake:hotpath but has no Go body`

// asmExempt says why it is safe: accepted.
//
//cake:hotpath-exempt assembly body: allocates nothing
//go:noescape
func asmExempt(n int, p *float64)

// asmCold carries no directive and is not hot: nothing to report.
func asmCold(n int, p *float64)
