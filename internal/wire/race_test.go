//go:build race

package wire

// raceEnabled reports whether the test binary was built with -race. The
// race detector's sync.Pool drops Put items at random, so a pooled
// cursor is sometimes allocated afresh and allocation counts vary.
const raceEnabled = true
