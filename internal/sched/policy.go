package sched

import (
	"fmt"
	"slices"
)

// Policy is the paper's scheduling-policy abstraction, decomposed into the
// three steps of Figure 1 plus a user-defined load metric (Listing 1):
//
//	Load      — the `load()` function: how loaded a core is.
//	CanSteal  — step 1, the filter: may thief steal from stealee?
//	Choose    — step 2: pick one core among the filtered candidates.
//	StealCount— step 3 sizing: how many tasks to migrate per steal.
//
// The separation is what makes the proofs tractable: work-conservation
// obligations constrain only Load, CanSteal and StealCount; Choose may
// implement arbitrary heuristics (NUMA, cache locality, ...) as long as it
// returns one of the candidates it was given, which the executors enforce
// (mirroring Listing 1's `ensuring(res => cores.contains(res))`).
//
// Implementations must be pure with respect to the machine state: the
// selection phase of a balancing round is lock-free and read-only (§3.1),
// so a Policy must not mutate the cores it inspects. The executors hand
// policies the live machine in both modes — a mutating policy corrupts it
// and invalidates its own proofs.
type Policy interface {
	// Name identifies the policy in reports and traces.
	Name() string

	// Load returns the policy's load metric for a core. For the simple
	// balancer of Listing 1 this is the thread count; for the weighted
	// balancer it is the weight sum.
	Load(c *Core) int64

	// CanSteal is the step-1 filter: whether thief may steal from
	// stealee, based only on the two cores' observable state. It is
	// evaluated lock-free during selection and re-validated under locks
	// at the start of the steal (Listing 1 line 12).
	CanSteal(thief, stealee *Core) bool

	// Choose is the step-2 choice among the cores that passed the
	// filter. candidates is never empty. The returned core must be one
	// of the candidates; the executors verify this and panic otherwise,
	// since a policy violating it has broken its proof obligations.
	Choose(thief *Core, candidates []*Core) *Core

	// StealCount returns how many tasks thief should take from stealee
	// in one steal operation. The executors clamp the result to the
	// number of stealable (queued) tasks; returning a count that would
	// empty an overloaded stealee is a soundness violation detected by
	// internal/verify.
	StealCount(thief, stealee *Core) int
}

// RoundObserver is an optional Policy extension for policies whose filter
// depends on machine-wide statistics (e.g. per-group load sums for
// hierarchical balancing, §5). BeginRound is invoked with the view the
// subsequent selections run against: SelectAll observes the live machine
// once and then selects for every core on it, so through the stealing
// phase the cached statistics are as stale as the selections — exactly
// the staleness the optimistic model prescribes; Select and
// SequentialRound observe before each core's selection. Implementations
// must treat the view as read-only and keep what they need from it: the
// machine changes under them once steals begin.
type RoundObserver interface {
	BeginRound(view *Machine)
}

// Rescuer is an optional Policy extension for policies that react to
// fail-stop core faults: RescueTarget picks the online core that adopts
// a task bound for the offline core failed — an orphan of the fault, or
// a task spawned or woken there later. It is invoked once per task
// (candidates is never empty and never contains the failed core); the
// returned core must be one of the candidates, or nil to leave the task
// stranded until the core revives. Policies without this extension
// ignore orphans entirely — the behavior the no-task-lost obligation
// exists to refute.
type Rescuer interface {
	RescueTarget(failed *Core, candidates []*Core) *Core
}

// Place is the one placement rule: the core a task bound for core lands
// on — an orphan of a failed core, a spawn or a wake. It is core itself
// while core is online; otherwise the online core p's rescue rule picks;
// otherwise (p has no rescue rule or declines, or no core is online)
// core itself again, where the task stays stranded until a revive. The
// online cores are gathered in m's buffers, so Place allocates nothing;
// they are valid until m's next Place or selection. A pick outside them
// has broken the contract the no-task-lost proof relies on, and panics
// like an escaping Choose. Place never mutates m's cores.
func Place(p Policy, m *Machine, core int) *Core {
	home := m.Cores[core]
	r, ok := p.(Rescuer)
	if !home.Offline || !ok {
		return home
	}
	b := m.scratch()
	online := b.cands[:0]
	for _, c := range m.Cores {
		if !c.Offline {
			online = append(online, c)
		}
	}
	b.cands = online[:0] // keep what the append grew
	if len(online) == 0 {
		return home
	}
	target := r.RescueTarget(home, online)
	switch {
	case target == nil:
		return home
	case slices.Contains(online, target):
		return target
	}
	panic(fmt.Sprintf("sched: policy %q RescueTarget returned core %d, not among online candidates",
		p.Name(), target.ID))
}

// TaskPicker is an optional Policy extension for policies that must steal
// specific tasks rather than whatever sits at the runqueue tail (e.g. the
// weighted balancer, which picks a task small enough to strictly decrease
// the load imbalance). PickTask returns the one queued task on stealee
// to migrate; nil fails the steal. The task must be queued (not running)
// on stealee.
type TaskPicker interface {
	PickTask(thief, stealee *Core) *Task
}

// ChooseFunc is a standalone step-2 heuristic. Policies built from
// separable parts (e.g. DSL-compiled policies, or the composition helpers
// below) use it to swap placement heuristics without touching the filter,
// which is exactly the paper's argument for why heuristics are proof-free.
type ChooseFunc func(thief *Core, candidates []*Core) *Core

// ChooseFirst picks the candidate with the lowest core ID. It is the
// deterministic default used by the verifier, making counterexample traces
// reproducible.
func ChooseFirst(_ *Core, candidates []*Core) *Core {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.ID < best.ID {
			best = c
		}
	}
	return best
}

// ChooseMaxLoad returns a ChooseFunc that picks the most loaded candidate
// according to the given load metric, breaking ties by lowest core ID.
// This mirrors CFS's preference for stealing from the busiest queue.
func ChooseMaxLoad(load func(*Core) int64) ChooseFunc {
	return func(_ *Core, candidates []*Core) *Core {
		best := candidates[0]
		bestLoad := load(best)
		for _, c := range candidates[1:] {
			l := load(c)
			if l > bestLoad || (l == bestLoad && c.ID < best.ID) {
				best, bestLoad = c, l
			}
		}
		return best
	}
}

// ChooseNearest returns a ChooseFunc preferring candidates on the thief's
// NUMA node, then falling back to the most loaded candidate. distance
// reports the topological distance between two cores; smaller is closer.
// Because it only reorders candidates, it inherits the filter's proof.
func ChooseNearest(distance func(a, b *Core) int, load func(*Core) int64) ChooseFunc {
	return func(thief *Core, candidates []*Core) *Core {
		best := candidates[0]
		bestDist := distance(thief, best)
		bestLoad := load(best)
		for _, c := range candidates[1:] {
			d, l := distance(thief, c), load(c)
			switch {
			case d < bestDist:
				best, bestDist, bestLoad = c, d, l
			case d == bestDist && l > bestLoad:
				best, bestLoad = c, l
			case d == bestDist && l == bestLoad && c.ID < best.ID:
				best = c
			}
		}
		return best
	}
}

// FuncPolicy assembles a Policy from its parts. It is the bridge used by
// the DSL compiler and by tests that build one-off policies.
type FuncPolicy struct {
	PolicyName string
	LoadFn     func(*Core) int64
	FilterFn   func(thief, stealee *Core) bool
	ChooseFn   ChooseFunc
	CountFn    func(thief, stealee *Core) int
	// RescueFn, when non-nil, makes the policy a Rescuer: it picks the
	// online core that adopts a task bound for a failed core.
	RescueFn func(failed *Core, candidates []*Core) *Core
}

var _ Rescuer = (*FuncPolicy)(nil)

// Name implements Policy.
func (p *FuncPolicy) Name() string { return p.PolicyName }

// Load implements Policy.
func (p *FuncPolicy) Load(c *Core) int64 { return p.LoadFn(c) }

// CanSteal implements Policy.
func (p *FuncPolicy) CanSteal(thief, stealee *Core) bool { return p.FilterFn(thief, stealee) }

// Choose implements Policy. It falls back to ChooseFirst when no choice
// function was provided.
func (p *FuncPolicy) Choose(thief *Core, candidates []*Core) *Core {
	if p.ChooseFn == nil {
		return ChooseFirst(thief, candidates)
	}
	return p.ChooseFn(thief, candidates)
}

// StealCount implements Policy. It falls back to stealing one task when no
// count function was provided, matching Listing 1's stealOneThread.
func (p *FuncPolicy) StealCount(thief, stealee *Core) int {
	if p.CountFn == nil {
		return 1
	}
	return p.CountFn(thief, stealee)
}

// RescueTarget implements Rescuer. Without a RescueFn the policy leaves
// orphans stranded (returns nil), which is the semantics of a policy
// with no rescue rule.
func (p *FuncPolicy) RescueTarget(failed *Core, candidates []*Core) *Core {
	if p.RescueFn == nil {
		return nil
	}
	return p.RescueFn(failed, candidates)
}
