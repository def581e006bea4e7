package verify

import (
	"strconv"

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
		panic("verify: enumerated script " + faults(m.Faults) + ": " + err.Error())
	}
}

// noTaskLost checks on one (state, fault script) pair that no task is
// ever lost to a core failure: every task orphaned by a fail-stop event
// is back on an online core — re-homed by the policy's rescue rule or
// recovered by the core's scripted revival — within MaxRounds rounds of
// the failure. A policy with no rescue rule fails this on any script
// that fails a non-empty core and never revives it.
func (sc *shardScratch) noTaskLost(rank int, m *sched.Machine) bool {
	if len(m.Faults) == 0 {
		return true // no faults, no orphans: vacuously safe
	}
	// In the model a task leaves an offline core only through rescue (at
	// fail time) or revival, so the orphan maps are maintained exactly at
	// fault events. Both are the worker's, emptied per state.
	if sc.orphanedAt == nil {
		sc.orphanedAt, sc.orphanCore = map[sched.TaskID]int{}, map[sched.TaskID]int{}
	}
	orphanedAt, orphanCore := sc.orphanedAt, sc.orphanCore
	start := appendLoads(sc.start[:0], m)
	sc.start = start
	clear(orphanedAt)
	clear(orphanCore)
	for i, ev := range m.Faults {
		replayFault(m, sc.f, ev)
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
				if delay > sc.maxRounds {
					return sc.refute(rank, func() string {
						return "state " + ints(start) + " script " + faults(m.Faults) + ": task " + strconv.Itoa(int(t.ID)) + " orphaned on core " + strconv.Itoa(core) +
							" at round " + strconv.Itoa(orphanedAt[t.ID]) + " not re-homed until round " + strconv.Itoa(i) + " (bound " + strconv.Itoa(sc.maxRounds) + ")"
					})
				}
				sc.res.raiseBound(delay)
				delete(orphanedAt, t.ID)
				delete(orphanCore, t.ID)
			}
		} else {
			for _, t := range m.Core(ev.Core).Queued() {
				orphanedAt[t.ID] = i
				orphanCore[t.ID] = ev.Core
			}
		}
		sched.SequentialRound(sc.f(), m)
	}
	// The script is over: nothing can re-home a still-stranded task, so
	// any survivor is lost for good, not merely late. Walk the machine
	// (not the map) for a deterministic first witness.
	for _, t := range m.Orphans() {
		if core, ok := orphanCore[t.ID]; ok {
			return sc.refute(rank, func() string {
				return "state " + ints(start) + " script " + faults(m.Faults) + ": task " + strconv.Itoa(int(t.ID)) + " stranded on failed core " + strconv.Itoa(core) +
					" at round " + strconv.Itoa(orphanedAt[t.ID]) + " is never re-homed (no rescue, no revival)"
			})
		}
	}
	return true
}

// degradedWastedCores checks on one (state, fault script) pair the
// wasted-cores invariant of §3.2 restated over a degraded machine's
// online cores: after the fault script's last event, iterating
// sequential rounds restores Machine.DegradedWorkConserved — no online
// core idle while an online core is overloaded or orphan work sits
// stranded offline — within MaxRounds rounds. Counting stranded orphans
// as waiting work is what refutes rescue-less policies here: the
// survivors may balance perfectly among themselves while an idle core
// ignores work it could adopt.
func (sc *shardScratch) degradedWastedCores(rank int, m *sched.Machine) bool {
	if len(m.Faults) == 0 {
		// The healthy invariant is work-conservation-sequential's job;
		// this obligation owns the degraded states only.
		return true
	}
	start := appendLoads(sc.start[:0], m)
	sc.start = start
	for _, ev := range m.Faults {
		replayFault(m, sc.f, ev)
		sched.SequentialRound(sc.f(), m)
	}
	// Recovery phase: from the post-script state, sequential rounds must
	// reach the degraded invariant.
	rounds, end := converge(sc.f, m, sc.maxRounds, &sc.seen, (*sched.Machine).DegradedWorkConserved)
	switch end {
	case exhausted:
		return sc.refute(rank, func() string {
			return "state " + ints(start) + " script " + faults(m.Faults) + ": degraded invariant not restored after " + strconv.Itoa(sc.maxRounds) + " rounds"
		})
	case stuck:
		return sc.refute(rank, func() string {
			return "state " + ints(start) + " script " + faults(m.Faults) + ": stuck at " + ints(m.Loads()) +
				" with an idle online core and unclaimed work (no steal possible)"
		})
	case cycled:
		return sc.refute(rank, func() string {
			return "state " + ints(start) + " script " + faults(m.Faults) + ": rounds cycle through " + ints(m.Loads()) + " without restoring the degraded invariant"
		})
	}
	sc.res.raiseBound(rounds)
	return true
}
