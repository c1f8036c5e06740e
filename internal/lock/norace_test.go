//go:build !race

package lock

const raceEnabled = false
