//go:build race

package heap

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts unrepresentative.
const raceEnabled = true
