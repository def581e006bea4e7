package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Emit(Event{Time: int64(i), Kind: KindSteal, Core: i})
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Time != int64(i) {
			t.Errorf("event %d out of order: %+v", i, e)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 7; i++ {
		r.Emit(Event{Time: int64(i)})
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	evs := r.Events()
	want := []int64{4, 5, 6}
	for i, e := range evs {
		if e.Time != want[i] {
			t.Errorf("Events[%d].Time = %d, want %d", i, e.Time, want[i])
		}
	}
}

func TestNilRingIsNoop(t *testing.T) {
	var r *Ring
	r.Emit(Event{Kind: KindExit}) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil ring should be inert")
	}
}

func TestRingPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestWriteJSON(t *testing.T) {
	r := NewRing(4)
	r.Emit(Event{Time: 5, Kind: KindWake, Core: 2, Task: 7, Aux: -1})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0] != (Event{Time: 5, Kind: KindWake, Core: 2, Task: 7, Aux: -1}) {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 3, Kind: KindBlock, Core: 1, Task: 9, Aux: -1}
	s := e.String()
	for _, frag := range []string{"3", "block", "core=1", "task=9"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
}
