//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// line is a no-op where no prefetch instruction is wired up.
func line(unsafe.Pointer) {}
