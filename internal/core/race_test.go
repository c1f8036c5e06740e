//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through a pool do not repeat.
const raceEnabled = true
