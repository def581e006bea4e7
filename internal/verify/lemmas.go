package verify

import (
	"context"
	"fmt"

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

// lemma1Check checks Listing 2 on one state, for every idle thief:
//
//	(∃ overloaded core  ⇒  ∃ core the thief can steal from)  ∧
//	(∀ cores c: thief.canSteal(c) ⇒ overloaded(c))
//
// The paper proves this with Leon for the sequential setting; here it is
// established by exhaustion up to the universe bound.
func lemma1Check(f Factory, res *Result) stateCheck {
	return func(rank int, m *sched.Machine) bool {
		p := f()
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
						res.refute(rank, fmt.Sprintf(
							"state %v: idle thief c%d may steal from non-overloaded c%d",
							m.Loads(), thief.ID, c.ID))
						return false
					}
				}
			}
			if hasOverloaded && !hasCandidate {
				res.refute(rank, fmt.Sprintf(
					"state %v (key %s): idle thief c%d has no candidate despite an overloaded core",
					m.Loads(), m.Key(), thief.ID))
				return false
			}
		}
		return true
	}
}

// admittedSteals is the state check steal-soundness and
// potential-decrease share: every (thief, stealee) pair the filter
// admits in the state is stolen in isolation — on a copy, under a fresh
// policy whose round began on that copy, with no concurrent steal to
// interfere — and the outcome is handed to violation, which names what
// the steal broke ("" for nothing). before is the untouched state, after
// the copy the steal ran on, p the policy that ran it.
func admittedSteals(f Factory, sc *shardScratch, res *Result, violation func(before, after *sched.Machine, p sched.Policy, att *sched.Attempt) string) stateCheck {
	// One Attempt per shard, not per pair: handing its address to a func
	// value would otherwise move a fresh one to the heap for every pair.
	var att sched.Attempt
	trial := &sc.trial // the worker's, overwritten per pair
	return func(rank int, m *sched.Machine) bool {
		p := f()
		beginRound(p, m)
		for ti := range m.Cores {
			for si := range m.Cores {
				if ti == si || !p.CanSteal(m.Core(ti), m.Core(si)) {
					continue
				}
				trial.CopyFrom(m)
				pt := f()
				beginRound(pt, trial)
				att = sched.Attempt{Thief: ti, Victim: si}
				sched.Steal(pt, trial, &att)
				if bad := violation(m, trial, pt, &att); bad != "" {
					res.refute(rank, bad)
					return false
				}
			}
		}
		return true
	}
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
		return fmt.Sprintf("state %v: admitted steal c%d<-c%d failed in isolation (%v)",
			before.Loads(), ti, si, att.Reason)
	}
	if after.Core(si).Idle() {
		return fmt.Sprintf("state %v: steal c%d<-c%d emptied the stealee",
			before.Loads(), ti, si)
	}
	if after.TotalThreads() != before.TotalThreads() {
		return fmt.Sprintf("state %v: steal c%d<-c%d changed thread population %d->%d",
			before.Loads(), ti, si, before.TotalThreads(), after.TotalThreads())
	}
	if err := after.Validate(); err != nil {
		return fmt.Sprintf("state %v: steal c%d<-c%d corrupted the machine: %v",
			before.Loads(), ti, si, err)
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
	return fmt.Sprintf("state %v: steal c%d<-c%d left potential %d -> %d (no strict decrease)",
		before.Loads(), att.Thief, att.Victim, d0, d1)
}

// failureImpliesSuccessCheck checks the first §4.3 concurrency
// obligation on one state: in every concurrent round, under every
// adversarial steal order, every re-validation failure is explained by
// an earlier successful steal involving the failed attempt's thief or
// victim. The argument in the paper: only the stealing phase mutates
// runqueues, so a filter that flipped between selection and steal must
// have been flipped by a completed steal.
func failureImpliesSuccessCheck(ctx context.Context, f Factory, sc *shardScratch, res *Result) stateCheck {
	trial, perms := &sc.trial, &sc.perms
	walked := 0 // the shard's walked orders, the cancellation poll's stride
	return func(rank int, m *sched.Machine) bool {
		// One selection per state: it reads only the round-start
		// snapshot, which is the same under every order.
		p := f()
		atts := sched.SelectAll(p, m)
		return perms.stealOrders(atts, func(order []int, weight int) bool {
			// A state fans out to k! walked orders, so polling only per
			// state would stretch cancellation latency by that factor on
			// wide universes; poll per walked order at the same stride.
			if walked&63 == 0 && aborted(ctx, res) {
				return false
			}
			walked++
			res.SchedulesChecked = satAdd(res.SchedulesChecked, weight)
			rr := sched.ExecuteSteals(p, trial.CopyFrom(m), atts, order)
			for _, att := range rr.Attempts {
				if att.Reason == sched.FailRevalidation && !att.PredecessorSuccess {
					res.refute(rank, fmt.Sprintf(
						"state %v order %v: c%d's failed steal from c%d has no predecessor success",
						m.Loads(), order, att.Thief, att.Victim))
					return false
				}
			}
			return true
		})
	}
}
