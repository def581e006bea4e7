package verify

import (
	"fmt"

	"repro/internal/sched"
)

// This file checks the fail-stop fault model: the two obligations that
// make graceful degradation a verified property rather than a hope.
// They quantify over the universe's fault dimension — every machine is
// enumerated under every valid fault script of up to MaxFaults events
// (statespace.Universe.MaxFaults) — and replay each script
// deterministically: event i is applied at round boundary i (a fail
// invokes the policy's rescue rule on the orphans it creates, a revive
// brings the core's stranded tasks back), with one sequential round
// between boundaries so the surviving cores keep balancing while the
// faults land. Because every prefix of an enumerated script is itself an
// enumerated script, "recovered after the last event" over all scripts
// covers recovery after *any* event.

// replayFault applies one event of an enumerated script. A revival
// consults no policy, so none is built for it; enumerated scripts are
// valid by construction, so a refusal is a verifier bug.
func replayFault(m *sched.Machine, f Factory, ev sched.FaultEvent) {
	var p sched.Policy
	if !ev.Revive {
		p = f()
	}
	if _, err := m.ApplyFault(p, ev); err != nil {
		panic(fmt.Sprintf("verify: enumerated script %v: %v", m.Faults, err))
	}
}

// noTaskLostCheck checks on one (state, fault script) pair that no task
// is ever lost to a core failure: every task orphaned by a fail-stop
// event is back on an online core — re-homed by the policy's rescue rule
// or recovered by the core's scripted revival — within maxRounds rounds
// of the failure. A policy with no rescue rule fails this on any script
// that fails a non-empty core and never revives it.
func noTaskLostCheck(f Factory, maxRounds int, sc *shardScratch, res *Result) stateCheck {
	// In the model a task leaves an offline core only through rescue (at
	// fail time) or revival, so the orphan maps are maintained exactly at
	// fault events. Both are the worker's, emptied per state.
	if sc.orphanedAt == nil {
		sc.orphanedAt, sc.orphanCore = map[sched.TaskID]int{}, map[sched.TaskID]int{}
	}
	orphanedAt, orphanCore := sc.orphanedAt, sc.orphanCore
	return func(rank int, m *sched.Machine) bool {
		if len(m.Faults) == 0 {
			return true // no faults, no orphans: vacuously safe
		}
		start := appendLoads(sc.start[:0], m)
		sc.start = start
		clear(orphanedAt)
		clear(orphanCore)
		for i, ev := range m.Faults {
			replayFault(m, f, ev)
			if ev.Revive {
				// Walk the revived core's queue (not the map) for a
				// deterministic first witness: the stranded orphans are
				// exactly the tasks still sitting in its runqueue.
				for _, t := range m.Core(ev.Core).Queued() {
					core, ok := orphanCore[t.ID]
					if !ok || core != ev.Core {
						continue
					}
					delay := i - orphanedAt[t.ID]
					if delay > maxRounds {
						res.refute(rank, fmt.Sprintf(
							"state %v script %v: task %d orphaned on core %d at round %d not re-homed until round %d (bound %d)",
							start, m.Faults, t.ID, core, orphanedAt[t.ID], i, maxRounds))
						return false
					}
					res.raiseBound(delay)
					delete(orphanedAt, t.ID)
					delete(orphanCore, t.ID)
				}
			} else {
				for _, t := range m.Core(ev.Core).Queued() {
					orphanedAt[t.ID] = i
					orphanCore[t.ID] = ev.Core
				}
			}
			sched.SequentialRound(f(), m)
		}
		// The script is over: nothing can re-home a still-stranded task,
		// so any survivor is lost for good, not merely late. Walk the
		// machine (not the map) for a deterministic first witness.
		for _, t := range m.Orphans() {
			if core, ok := orphanCore[t.ID]; ok {
				res.refute(rank, fmt.Sprintf(
					"state %v script %v: task %d stranded on failed core %d at round %d is never re-homed (no rescue, no revival)",
					start, m.Faults, t.ID, core, orphanedAt[t.ID]))
				return false
			}
		}
		return true
	}
}

// degradedWastedCoresCheck checks on one (state, fault script) pair the
// wasted-cores invariant of §3.2 restated over a degraded machine's
// online cores: after the fault script's last event, iterating
// sequential rounds restores Machine.DegradedWorkConserved — no online
// core idle while an online core is overloaded or orphan work sits
// stranded offline — within maxRounds rounds. Counting stranded orphans
// as waiting work is what refutes rescue-less policies here: the
// survivors may balance perfectly among themselves while an idle core
// ignores work it could adopt.
func degradedWastedCoresCheck(f Factory, maxRounds int, sc *shardScratch, res *Result) stateCheck {
	return func(rank int, m *sched.Machine) bool {
		if len(m.Faults) == 0 {
			// The healthy invariant is work-conservation-sequential's
			// job; this obligation owns the degraded states only.
			return true
		}
		start := appendLoads(sc.start[:0], m)
		sc.start = start
		for _, ev := range m.Faults {
			replayFault(m, f, ev)
			sched.SequentialRound(f(), m)
		}
		// Recovery phase: from the post-script state, sequential rounds
		// must reach the degraded invariant.
		rounds, end := converge(f, m, maxRounds, &sc.seen, (*sched.Machine).DegradedWorkConserved)
		switch end {
		case exhausted:
			res.refute(rank, fmt.Sprintf(
				"state %v script %v: degraded invariant not restored after %d rounds", start, m.Faults, maxRounds))
		case stuck:
			res.refute(rank, fmt.Sprintf(
				"state %v script %v: stuck at %v with an idle online core and unclaimed work (no steal possible)",
				start, m.Faults, m.Loads()))
		case cycled:
			res.refute(rank, fmt.Sprintf(
				"state %v script %v: rounds cycle through %v without restoring the degraded invariant",
				start, m.Faults, m.Loads()))
		default:
			res.raiseBound(rounds)
		}
		return end == converged
	}
}
