//go:build race

package service

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap.
const raceEnabled = true
