//go:build !race

package engine

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap.
const raceEnabled = false
