package verify

import (
	"fmt"
	"strconv"

	"repro/internal/sched"
)

// Factory produces a policy instance per check, isolating any per-round
// caches (sched.RoundObserver state) or chooser state between runs: the
// instance of a stateful policy must be fresh. A factory may hand out one
// shared instance of a stateless policy — dsl.Compile does for every
// program without a random chooser — since no check can then observe
// another's. Checks fan out over universe shards on a worker pool, so a
// factory must be safe for concurrent calls, and a shared instance safe
// for concurrent use; every registered and DSL-compiled factory is. A
// caller whose factory is not concurrency-safe must set
// Config.Sequential, which runs every shard on the calling goroutine
// (and produces the identical report).
type Factory func() sched.Policy

// beginRound refreshes a policy's cached round statistics when it
// observes rounds; a no-op otherwise.
func beginRound(p sched.Policy, view *sched.Machine) {
	if obs, ok := p.(sched.RoundObserver); ok {
		obs.BeginRound(view)
	}
}

// lemma1 checks Listing 2 on one state, for every idle thief:
//
//	(∃ overloaded core  ⇒  ∃ core the thief can steal from)  ∧
//	(∀ cores c: thief.canSteal(c) ⇒ overloaded(c))
//
// The paper proves this with Leon for the sequential setting; here it is
// established by exhaustion up to the universe bound.
func (sc *shardScratch) lemma1(rank int, m *sched.Machine) bool {
	p := sc.f()
	beginRound(p, m)
	for _, thief := range m.Cores {
		if !thief.Idle() {
			continue // Lemma 1's @require: the thief is idle
		}
		hasOverloaded, hasCandidate := false, false
		for _, c := range m.Cores {
			if c.ID == thief.ID {
				continue
			}
			if c.Overloaded() {
				hasOverloaded = true
			}
			if p.CanSteal(thief, c) {
				hasCandidate = true
				if !c.Overloaded() {
					return sc.refute(rank, func() string {
						return fmt.Sprintf("state %s: idle thief c%d may steal from non-overloaded c%d", ints(m.Loads()), thief.ID, c.ID)
					})
				}
			}
		}
		if hasOverloaded && !hasCandidate {
			return sc.refute(rank, func() string {
				return fmt.Sprintf("state %s (key %s): idle thief c%d has no candidate despite an overloaded core", ints(m.Loads()), m.Key(), thief.ID)
			})
		}
	}
	return true
}

// stealSoundness checks the §4.2 stealing-phase obligations on one state
// (stealViolation).
func (sc *shardScratch) stealSoundness(rank int, m *sched.Machine) bool {
	return sc.admittedSteals(rank, m, stealViolation)
}

// potentialDecrease checks the §4.3 bounded-successes obligation on one
// state (potentialViolation).
func (sc *shardScratch) potentialDecrease(rank int, m *sched.Machine) bool {
	return sc.admittedSteals(rank, m, potentialViolation)
}

// admittedSteals is the state check steal-soundness and
// potential-decrease share: every (thief, stealee) pair the filter
// admits in the state is stolen in isolation — on a copy, under a fresh
// policy whose round began on that copy, with no concurrent steal to
// interfere — and the outcome is handed to violation, which names what
// the steal broke ("" for nothing; the check prefixes the state). before
// is the untouched state, after the copy the steal ran on, p the policy
// that ran it.
func (sc *shardScratch) admittedSteals(rank int, m *sched.Machine, violation func(before, after *sched.Machine, p sched.Policy, att *sched.Attempt) string) bool {
	att, trial := &sc.att, &sc.trial // the worker's, overwritten per pair
	p := sc.f()
	beginRound(p, m)
	for ti := range m.Cores {
		for si := range m.Cores {
			if ti == si || !p.CanSteal(m.Core(ti), m.Core(si)) {
				continue
			}
			trial.CopyFrom(m)
			pt := sc.f()
			beginRound(pt, trial)
			*att = sched.Attempt{Thief: ti, Victim: si}
			sched.Steal(pt, trial, att)
			if bad := violation(m, trial, pt, att); bad != "" {
				return sc.refute(rank, func() string { return "state " + ints(m.Loads()) + ": " + bad })
			}
		}
	}
	return true
}

// stealViolation states the §4.2 obligations on the stealing phase, for
// one admitted steal:
//
//   - the steal succeeds (an admitted selection is realizable when no
//     concurrent steal interferes);
//   - the stealee does not end up idle ("does not steal too much");
//   - the thread population and structural invariants are preserved.
func stealViolation(before, after *sched.Machine, _ sched.Policy, att *sched.Attempt) string {
	ti, si := att.Thief, att.Victim
	if !att.Succeeded() {
		return fmt.Sprintf("admitted steal c%d<-c%d failed in isolation (%v)", ti, si, att.Reason)
	}
	if after.Core(si).Idle() {
		return fmt.Sprintf("steal c%d<-c%d emptied the stealee", ti, si)
	}
	if after.TotalThreads() != before.TotalThreads() {
		return fmt.Sprintf("steal c%d<-c%d changed thread population %d->%d",
			ti, si, before.TotalThreads(), after.TotalThreads())
	}
	if err := after.Validate(); err != nil {
		return fmt.Sprintf("steal c%d<-c%d corrupted the machine: %v", ti, si, err)
	}
	return ""
}

// potentialViolation states the §4.3 bounded-successes obligation for
// one admitted steal: it strictly decreases the pairwise imbalance d. A
// policy failing this has unbounded steal sequences available (the
// greedy-buggy ping-pong). A steal that failed in isolation is
// steal-soundness's finding, not this one's.
func potentialViolation(before, after *sched.Machine, p sched.Policy, att *sched.Attempt) string {
	if !att.Succeeded() {
		return ""
	}
	// A policy's Load reads only the core it is given, so measuring the
	// untouched state under p is measuring the clone before the steal.
	d0, d1 := sched.PairwiseImbalance(p, before), sched.PairwiseImbalance(p, after)
	if d1 < d0 {
		return ""
	}
	return fmt.Sprintf("steal c%d<-c%d left potential %d -> %d (no strict decrease)", att.Thief, att.Victim, d0, d1)
}

// failureImpliesSuccess checks the first §4.3 concurrency obligation on
// one state: in every concurrent round, under every adversarial steal
// order, every re-validation failure is explained by an earlier
// successful steal involving the failed attempt's thief or victim. The
// argument in the paper: only the stealing phase mutates runqueues, so a
// filter that flipped between selection and steal must have been
// flipped by a completed steal. The call's game graph walked the state's
// order game once and kept the verdict and the orders' weight on its
// start node; only a witness walks them again.
func (sc *shardScratch) failureImpliesSuccess(rank int, _ *sched.Machine) bool {
	g, i := sc.graph, sc.seed
	n := &g.nodes[i]
	sc.res.SchedulesChecked = satAdd(sc.res.SchedulesChecked, n.fis)
	if !n.fails {
		return true
	}
	return sc.refute(rank, func() string {
		var witness string
		m := g.rebuild(&sc.m, i)
		sc.expand(m, orderEdge, func(rr sched.RoundResult, _ *sched.Machine, _ []sched.Attempt, order []int, _ int, _ edgeKind) bool {
			att := unexplained(rr)
			if att == nil {
				return true
			}
			witness = "state " + ints(m.Loads()) + " order " + ints(order) + ": c" + strconv.Itoa(att.Thief) +
				"'s failed steal from c" + strconv.Itoa(att.Victim) + " has no predecessor success"
			return false
		})
		return witness
	})
}
