// Package faultinject is the chaos-testing harness behind schedverifyd's
// hidden -faults flag and the service's WithFaults option: a rule set
// that injects failures at named fault points — disk write errors and
// torn (partial) WAL writes in the durable store, and checker panics and
// artificial stalls in the verification workers.
//
// Production code consults a *Set at each fault point via Check; a nil
// Set is inert and costs one nil comparison, so the hooks stay in the
// production build permanently. Rules fire deterministically on the
// n-th matching occurrence (or on every occurrence), which is what lets
// the chaos tests script exact kill-mid-write/restart sequences.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op names a fault point.
type Op string

const (
	// OpWALAppend fires around each WAL record write (store.Append).
	OpWALAppend Op = "wal-append"
	// OpWALTruncate fires around the WAL heal-truncate after a failed
	// append; failing it drives the store into memory-only degraded mode.
	OpWALTruncate Op = "wal-truncate"
	// OpCompactWrite / OpCompactRename fire around the two compaction
	// steps: writing the rewritten WAL to its temporary file and renaming
	// it over the live one.
	OpCompactWrite  Op = "compact-write"
	OpCompactRename Op = "compact-rename"
	// OpChecker fires before each obligation checker run; its arg is the
	// obligation ID, so a rule can target one checker.
	OpChecker Op = "checker"
	// OpWorker fires when a job worker picks up a job.
	OpWorker Op = "worker"
)

// Kind is what happens when a rule fires.
type Kind string

const (
	// KindFail makes the operation return ErrInjected without side
	// effects.
	KindFail Kind = "fail"
	// KindTorn makes a write persist only the first Rule.Bytes bytes and
	// then fail — a torn write, the disk half of kill -9 mid-append.
	KindTorn Kind = "torn"
	// KindPanic panics at the fault point (exercises the workers' panic
	// recovery).
	KindPanic Kind = "panic"
	// KindStall sleeps Rule.Delay at the fault point.
	KindStall Kind = "stall"
)

// ErrInjected is the error every failing fault surfaces.
var ErrInjected = errors.New("faultinject: injected failure")

// Rule arms one fault.
type Rule struct {
	Op   Op
	Kind Kind
	// Match filters by the fault point's argument (e.g. an obligation
	// ID for OpChecker); empty matches every argument.
	Match string
	// Bytes is the torn-write prefix length (KindTorn).
	Bytes int
	// Delay is the stall duration (KindStall).
	Delay time.Duration
	// On makes the rule fire only on the On-th matching occurrence
	// (1-based). Zero fires on every occurrence.
	On int
	// Prob, when in (0, 1], makes the rule probabilistic: every matching
	// occurrence fires independently with this probability, drawn from a
	// per-rule deterministic xorshift stream — the same seed always
	// yields the same fire pattern, so probabilistic chaos runs stay
	// reproducible. A probabilistic rule ignores On.
	Prob float64
	// Seed seeds the probabilistic stream; zero selects a fixed default.
	Seed int64
}

// Directive tells a fault point what to do: Err non-nil means fail the
// operation, after persisting TornBytes bytes (zero for a clean
// failure). The zero Directive means proceed normally.
type Directive struct {
	Err       error
	TornBytes int
}

// Set is an armed collection of rules. Safe for concurrent use; nil is
// valid and inert.
type Set struct {
	mu    sync.Mutex
	rules []*ruleState
	fired map[string]int64
}

type ruleState struct {
	Rule
	seen int
	rng  uint64 // probabilistic-mode xorshift state, lazily seeded
}

// roll advances the rule's deterministic stream and reports whether
// this occurrence fires. The caller holds Set.mu.
func (r *ruleState) roll() bool {
	if r.rng == 0 {
		r.rng = uint64(r.Seed)
		if r.rng == 0 {
			r.rng = 0x9E3779B97F4A7C15 // golden-ratio default seed
		}
	}
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	// Top 53 bits as a uniform fraction in [0, 1).
	return float64(x>>11)/(1<<53) < r.Prob
}

// New arms a rule set.
func New(rules ...Rule) *Set {
	s := &Set{fired: make(map[string]int64)}
	for _, r := range rules {
		s.rules = append(s.rules, &ruleState{Rule: r})
	}
	return s
}

// Check consults the set at a fault point. KindPanic rules panic here
// and KindStall rules sleep here; KindFail and KindTorn come back as a
// Directive for the caller to apply (only the caller knows how to tear
// its own write). At most one rule fires per call (first armed match
// wins).
func (s *Set) Check(op Op, arg string) Directive {
	if s == nil {
		return Directive{}
	}
	s.mu.Lock()
	var hit *ruleState
	for _, r := range s.rules {
		if r.Op != op || (r.Match != "" && r.Match != arg) {
			continue
		}
		if r.Prob > 0 {
			if r.roll() {
				hit = r
				break
			}
			continue
		}
		r.seen++
		if r.On == 0 || r.seen == r.On {
			hit = r
			break
		}
	}
	if hit != nil {
		s.fired[string(op)+":"+string(hit.Kind)]++
	}
	s.mu.Unlock()
	if hit == nil {
		return Directive{}
	}
	switch hit.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s(%s)", op, arg))
	case KindStall:
		time.Sleep(hit.Delay)
		return Directive{}
	case KindTorn:
		return Directive{Err: ErrInjected, TornBytes: hit.Bytes}
	default: // KindFail
		return Directive{Err: ErrInjected}
	}
}

// Fired returns how often each (op, kind) pair has fired.
func (s *Set) Fired() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.fired))
	for k, v := range s.fired {
		out[k] = v
	}
	return out
}

var knownOps = []Op{OpWALAppend, OpWALTruncate, OpCompactWrite, OpCompactRename, OpChecker, OpWorker}

// Parse builds a Set from the -faults flag's comma-separated spec.
// Each element is op:kind[=arg][@n] or, probabilistically,
// op:kind[=arg]%p[@seed]:
//
//	wal-append:fail@3          fail the 3rd WAL append
//	wal-append:torn=5@2        2nd append persists 5 bytes, then fails
//	checker:panic=lemma1       panic every lemma1 checker run
//	worker:stall=200ms         stall every job pickup 200ms
//	compact-rename:fail        fail every compaction rename
//	wal-append:fail%0.01@42    fail ~1% of WAL appends, seed 42
//
// The kind argument is the torn byte count (torn), the stall duration
// (stall), or the fault point's match filter (fail, panic). With %p
// present (p in (0, 1]) each matching occurrence fires independently
// with probability p from a deterministic per-rule stream, and the @n
// suffix is the stream's seed rather than an occurrence count. An
// empty spec yields an inert empty set.
func Parse(spec string) (*Set, error) {
	s := New()
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, elem := range strings.Split(spec, ",") {
		rule, err := parseRule(strings.TrimSpace(elem))
		if err != nil {
			return nil, err
		}
		s.rules = append(s.rules, &ruleState{Rule: rule})
	}
	return s, nil
}

func parseRule(elem string) (Rule, error) {
	var r Rule
	body := elem
	suffix := ""
	if at := strings.LastIndex(body, "@"); at >= 0 {
		suffix = body[at+1:]
		body = body[:at]
	}
	if pct := strings.LastIndex(body, "%"); pct >= 0 {
		p, err := strconv.ParseFloat(body[pct+1:], 64)
		if err != nil || !(p > 0 && p <= 1) { // NaN fails both
			return r, fmt.Errorf("faultinject: bad probability in %q (want %%p with 0 < p <= 1)", elem)
		}
		r.Prob = p
		body = body[:pct]
		if suffix != "" {
			seed, err := strconv.ParseInt(suffix, 10, 64)
			if err != nil {
				return r, fmt.Errorf("faultinject: bad seed in %q (a probabilistic rule's @n is its stream seed)", elem)
			}
			r.Seed = seed
		}
	} else if suffix != "" {
		n, err := strconv.Atoi(suffix)
		if err != nil || n < 1 {
			return r, fmt.Errorf("faultinject: bad occurrence in %q (want @n with n >= 1)", elem)
		}
		r.On = n
	}
	opStr, rest, ok := strings.Cut(body, ":")
	if !ok {
		return r, fmt.Errorf("faultinject: %q is not op:kind[=arg][@n]", elem)
	}
	r.Op = Op(opStr)
	known := false
	for _, op := range knownOps {
		if r.Op == op {
			known = true
		}
	}
	if !known {
		return r, fmt.Errorf("faultinject: unknown fault point %q (known: %v)", opStr, knownOps)
	}
	kindStr, arg, _ := strings.Cut(rest, "=")
	r.Kind = Kind(kindStr)
	switch r.Kind {
	case KindFail, KindPanic:
		r.Match = arg
	case KindTorn:
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return r, fmt.Errorf("faultinject: bad torn byte count in %q", elem)
		}
		r.Bytes = n
	case KindStall:
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return r, fmt.Errorf("faultinject: bad stall duration in %q", elem)
		}
		r.Delay = d
	default:
		return r, fmt.Errorf("faultinject: unknown kind %q in %q (known: fail, torn, panic, stall)", kindStr, elem)
	}
	return r, nil
}
