package faultinject

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	if d := s.Check(OpWALAppend, ""); d.Err != nil || d.TornBytes != 0 {
		t.Errorf("nil set returned %+v", d)
	}
	if f := s.Fired(); f != nil {
		t.Errorf("nil set Fired() = %v", f)
	}
}

func TestOccurrenceCounting(t *testing.T) {
	s := New(Rule{Op: OpWALAppend, Kind: KindFail, On: 3})
	for i := 1; i <= 5; i++ {
		d := s.Check(OpWALAppend, "")
		if (d.Err != nil) != (i == 3) {
			t.Errorf("occurrence %d: err=%v, want fire only on 3rd", i, d.Err)
		}
	}
	if s.Fired()["wal-append:fail"] != 1 {
		t.Errorf("Fired() = %v, want one wal-append:fail", s.Fired())
	}
}

func TestEveryOccurrenceAndMatchFilter(t *testing.T) {
	s := New(Rule{Op: OpChecker, Kind: KindFail, Match: "lemma1"})
	if d := s.Check(OpChecker, "reactivity"); d.Err != nil {
		t.Error("rule fired on non-matching arg")
	}
	for i := 0; i < 3; i++ {
		if d := s.Check(OpChecker, "lemma1"); !errors.Is(d.Err, ErrInjected) {
			t.Errorf("matching arg occurrence %d did not fire: %v", i, d.Err)
		}
	}
	if d := s.Check(OpWALAppend, "lemma1"); d.Err != nil {
		t.Error("rule fired on wrong op")
	}
}

func TestTornDirective(t *testing.T) {
	s := New(Rule{Op: OpWALAppend, Kind: KindTorn, Bytes: 7})
	d := s.Check(OpWALAppend, "")
	if !errors.Is(d.Err, ErrInjected) || d.TornBytes != 7 {
		t.Errorf("torn directive = %+v", d)
	}
}

func TestPanicKindPanicsInCheck(t *testing.T) {
	s := New(Rule{Op: OpChecker, Kind: KindPanic, Match: "lemma1"})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "injected panic at checker(lemma1)") {
			t.Errorf("recover() = %v", r)
		}
	}()
	s.Check(OpChecker, "lemma1")
	t.Fatal("Check returned instead of panicking")
}

func TestStallKindSleeps(t *testing.T) {
	s := New(Rule{Op: OpWorker, Kind: KindStall, Delay: 30 * time.Millisecond})
	start := time.Now()
	if d := s.Check(OpWorker, ""); d.Err != nil {
		t.Errorf("stall returned error %v", d.Err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Errorf("stall slept only %v", took)
	}
}

func TestParseGrammar(t *testing.T) {
	s, err := Parse(" wal-append:fail@3, wal-append:torn=5@2 ,checker:panic=lemma1,worker:stall=200ms,snapshot-rename:fail")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: OpWALAppend, Kind: KindFail, On: 3},
		{Op: OpWALAppend, Kind: KindTorn, Bytes: 5, On: 2},
		{Op: OpChecker, Kind: KindPanic, Match: "lemma1"},
		{Op: OpWorker, Kind: KindStall, Delay: 200 * time.Millisecond},
		{Op: OpSnapshotRename, Kind: KindFail},
	}
	if len(s.rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(s.rules), len(want))
	}
	for i, w := range want {
		if s.rules[i].Rule != w {
			t.Errorf("rule %d = %+v, want %+v", i, s.rules[i].Rule, w)
		}
	}
}

func TestParseEmptySpecIsInert(t *testing.T) {
	s, err := Parse("   ")
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Check(OpWALAppend, ""); d.Err != nil {
		t.Errorf("empty spec injected %v", d.Err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"nonsense",               // no kind
		"frobnicate:fail",        // unknown op
		"wal-append:explode",     // unknown kind
		"wal-append:fail@0",      // occurrence must be >= 1
		"wal-append:fail@x",      // non-numeric occurrence
		"wal-append:torn=banana", // bad byte count
		"wal-append:torn=-1",     // negative byte count
		"worker:stall=fast",      // bad duration
		"worker:stall=-1s",       // negative duration
		"wal-append:fail,,",      // empty element
		"wal-append:fail%0",      // probability must be in (0,1]
		"wal-append:fail%1.5",    // probability above 1
		"wal-append:fail%-0.1",   // negative probability
		"checker:fail%NaN",       // not a probability
		"wal-append:fail%banana", // non-numeric probability
		"wal-append:fail%0.5@x",  // non-numeric seed
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseProbabilisticGrammar(t *testing.T) {
	s, err := Parse("worker:fail%0.01@42, worker:stall=5ms%0.5, checker:fail=lemma1%1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: OpWorker, Kind: KindFail, Prob: 0.01, Seed: 42},
		{Op: OpWorker, Kind: KindStall, Delay: 5 * time.Millisecond, Prob: 0.5},
		{Op: OpChecker, Kind: KindFail, Match: "lemma1", Prob: 1},
	}
	if len(s.rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(s.rules), len(want))
	}
	for i, w := range want {
		if s.rules[i].Rule != w {
			t.Errorf("rule %d = %+v, want %+v", i, s.rules[i].Rule, w)
		}
	}
}

func TestProbabilisticDeterministicPerSeed(t *testing.T) {
	// Same seed, same stream: two sets built from the same spec fire on
	// exactly the same Check sequence positions.
	pattern := func() []bool {
		s := New(Rule{Op: OpWorker, Kind: KindFail, Prob: 0.3, Seed: 7})
		out := make([]bool, 200)
		for i := range out {
			out[i] = s.Check(OpWorker, "").Err != nil
		}
		return out
	}
	a, b := pattern(), pattern()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire pattern diverged at check %d with identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("p=0.3 fired %d/%d times — stream is degenerate", fired, len(a))
	}

	// A different seed must give a different pattern (overwhelmingly).
	s := New(Rule{Op: OpWorker, Kind: KindFail, Prob: 0.3, Seed: 8})
	same := true
	for i := range a {
		if (s.Check(OpWorker, "").Err != nil) != a[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 200-check fire patterns")
	}
}

func TestProbabilisticRateRoughlyHonored(t *testing.T) {
	const n = 4000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := New(Rule{Op: OpWorker, Kind: KindFail, Prob: p, Seed: 1})
		fired := 0
		for i := 0; i < n; i++ {
			if s.Check(OpWorker, "").Err != nil {
				fired++
			}
		}
		got := float64(fired) / n
		if got < p-0.05 || got > p+0.05 {
			t.Errorf("p=%.1f fired at rate %.3f over %d checks", p, got, n)
		}
	}
}

func TestProbabilisticAlwaysFiresAtOne(t *testing.T) {
	s := New(Rule{Op: OpWorker, Kind: KindFail, Prob: 1})
	for i := 0; i < 50; i++ {
		if d := s.Check(OpWorker, "3"); !errors.Is(d.Err, ErrInjected) {
			t.Fatalf("p=1 rule did not fire on check %d", i)
		}
	}
	if s.Fired()["worker:fail"] != 50 {
		t.Errorf("Fired() = %v, want 50 worker:fail", s.Fired())
	}
}

// FuzzFaultSpec holds Parse to its grammar on any input: it never
// panics, and every rule it accepts names a known fault point and kind,
// fires with probability zero (counted mode) or in (0, 1], and carries
// no negative occurrence, byte count or stall.
func FuzzFaultSpec(f *testing.F) {
	for _, spec := range []string{
		"wal-append:fail@3",
		"wal-append:torn=5@2",
		"checker:panic=lemma1",
		"worker:stall=200ms",
		"snapshot-rename:fail",
		"wal-append:fail%0.01@42",
		"checker:fail%NaN",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		for _, r := range s.rules {
			if !slices.Contains(knownOps, r.Op) {
				t.Errorf("%q: accepted unknown fault point %q", spec, r.Op)
			}
			switch r.Kind {
			case KindFail, KindTorn, KindPanic, KindStall:
			default:
				t.Errorf("%q: accepted unknown kind %q", spec, r.Kind)
			}
			if r.Prob != 0 && !(r.Prob > 0 && r.Prob <= 1) {
				t.Errorf("%q: accepted probability %v", spec, r.Prob)
			}
			if r.On < 0 || r.Bytes < 0 || r.Delay < 0 {
				t.Errorf("%q: accepted a negative field in %+v", spec, r.Rule)
			}
		}
	})
}
