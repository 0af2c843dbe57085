// Package prefetch asks the CPU to start loading a cache line before the
// program reads it. At N=1M no per-node array fits in cache, so a read of
// a node chosen by an earlier read is a DRAM miss the core stalls on; a
// loop that knows the nodes a few steps ahead can issue their misses early
// and let them resolve behind the work in between.
//
// Line is a hint. It never faults — not even on nil —
// and never changes a value, so removing every call changes no output.
// On amd64 it is one PREFETCHT0 (prefetch_amd64.s), on arm64 one PRFM
// PLDL1KEEP (prefetch_arm64.s); on every other GOARCH it does nothing
// (prefetch_other.go), so the loops that call it run without look-ahead.
package prefetch

import "unsafe"

// Line hints that the cache line holding *p will be read soon.
func Line[T any](p *T) { line(unsafe.Pointer(p)) }
