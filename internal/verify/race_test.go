//go:build race

package verify

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap.
const raceEnabled = true
