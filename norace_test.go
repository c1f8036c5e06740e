//go:build !race

package pmv_test

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through a pool do not repeat.
const raceEnabled = false
