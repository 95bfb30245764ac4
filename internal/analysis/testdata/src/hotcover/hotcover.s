// The bodyless functions in hotcover.go are declared, never called or
// linked; this file only tells the compiler that the package carries
// assembly, so their declarations compile.
