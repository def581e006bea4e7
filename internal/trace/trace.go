// Package trace records structured scheduler events into a bounded ring
// buffer with JSON export — the debugging/replay facility of the
// simulator (internal/sim), the only backend that emits events; the model
// backend and the concurrent executor (internal/engine) emit none.
// Tracing is designed to be cheap enough to leave enabled: one struct
// copy per event, no allocation once the ring is warm, and a nil *Ring is
// a valid no-op tracer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Kind classifies an event.
type Kind string

// Event kinds, all emitted by the simulator.
const (
	KindSpawn     Kind = "spawn"      // task created on a core (aux: the offline core it was rescued off, or -1)
	KindStart     Kind = "start"      // task started running
	KindPreempt   Kind = "preempt"    // task preempted by the tick
	KindBlock     Kind = "block"      // task blocked (I/O, barrier)
	KindWake      Kind = "wake"       // task became runnable again (aux: as for spawn)
	KindExit      Kind = "exit"       // task finished
	KindSteal     Kind = "steal"      // successful task migration
	KindStealFail Kind = "steal-fail" // failed optimistic steal
	KindRound     Kind = "round"      // balancing round boundary
	KindViolation Kind = "violation"  // idle-while-overloaded observed
	KindFail      Kind = "fail"       // core fail-stopped (aux: tasks rescued)
	KindRevive    Kind = "revive"     // core rejoined via hotplug
)

// Event is one trace record. Fields are int64/strings only so the JSON
// export is stable and greppable.
type Event struct {
	// Time is the simulator's virtual timestamp.
	Time int64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Core is the core the event happened on, -1 if machine-wide.
	Core int `json:"core"`
	// Task is the task involved, -1 if none.
	Task int64 `json:"task"`
	// Aux carries the event's second core (steal source; for a spawn or
	// wake, the offline core it was rescued off) or other small payload;
	// -1 if unused.
	Aux int64 `json:"aux"`
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%d %s core=%d task=%d aux=%d", e.Time, e.Kind, e.Core, e.Task, e.Aux)
}

// Ring is a fixed-capacity event ring buffer. The zero value is unusable;
// use NewRing. A nil *Ring discards events, so callers never need nil
// checks around optional tracing.
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
}

// NewRing returns a ring holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: NewRing(%d)", capacity))
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit appends an event, evicting the oldest when full.
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.wrapped = true
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// WriteJSON streams the retained events as a JSON array.
func (r *Ring) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Events())
}
