//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation slows the
// event queue's record shifts about tenfold.
const raceEnabled = true
