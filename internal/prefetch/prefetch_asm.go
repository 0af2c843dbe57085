//go:build amd64 || arm64

package prefetch

import "unsafe"

// line prefetches p's line into every cache level (PREFETCHT0 on amd64,
// PRFM PLDL1KEEP on arm64).
//
//go:noescape
func line(p unsafe.Pointer)
