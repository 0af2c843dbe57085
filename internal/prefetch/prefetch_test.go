package prefetch

import "testing"

// TestLineNil: a prefetch of nil is a hint like any other and must not
// fault.
func TestLineNil(t *testing.T) {
	Line[int](nil)
	Line[[64]byte](nil)
}
