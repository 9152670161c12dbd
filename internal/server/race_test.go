//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through pooled encoders are not exact.
const raceEnabled = true
