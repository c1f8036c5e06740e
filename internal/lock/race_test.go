//go:build race

package lock

// raceEnabled reports a -race build, whose instrumentation allocates,
// so allocation counts do not repeat.
const raceEnabled = true
