package sched

import "fmt"

// FailureReason classifies why a steal attempt did not move any task.
type FailureReason int

const (
	// FailNone means the attempt succeeded.
	FailNone FailureReason = iota
	// FailNoCandidate means the filter kept no core during selection, so
	// the core did not attempt a steal this round.
	FailNoCandidate
	// FailRevalidation means the filter held during the lock-free
	// selection but no longer held under locks (Listing 1 line 12): the
	// optimistic decision was stale. The paper's "failed work-stealing
	// attempt".
	FailRevalidation
	// FailEmptyVictim means the filter still held but the victim had no
	// queued task to take (its only thread is running). A sound policy's
	// filter never passes such a core; the executor reports rather than
	// panics so the verifier can flag the policy.
	FailEmptyVictim
)

// String implements fmt.Stringer.
func (r FailureReason) String() string {
	switch r {
	case FailNone:
		return "ok"
	case FailNoCandidate:
		return "no-candidate"
	case FailRevalidation:
		return "revalidation-failed"
	case FailEmptyVictim:
		return "empty-victim"
	default:
		return fmt.Sprintf("FailureReason(%d)", int(r))
	}
}

// Attempt records one core's participation in a balancing round: what it
// selected during the lock-free phase and what happened when it tried to
// steal. The verifier uses these records to check the failure⇒success
// lemma of §4.3.
type Attempt struct {
	// Thief is the core that ran the round.
	Thief int
	// Victim is the core chosen in step 2, or -1 if the filter kept no
	// candidate.
	Victim int
	// Candidates are the core IDs that passed the step-1 filter at
	// selection time.
	Candidates []int
	// Moved is the number of tasks actually migrated in step 3.
	Moved int
	// MovedTasks are the IDs of the migrated tasks, in the round buffers
	// of the machine the steal ran on (see the package doc's reuse
	// paragraph).
	MovedTasks []TaskID
	// Reason classifies the outcome.
	Reason FailureReason
	// PredecessorSuccess reports, for a FailRevalidation attempt,
	// whether an earlier steal in the same round succeeded against this
	// attempt's victim or thief — the event that invalidated the
	// optimistic selection. Always false for other outcomes.
	PredecessorSuccess bool
}

// Succeeded reports whether the attempt moved at least one task.
func (a *Attempt) Succeeded() bool { return a.Reason == FailNone && a.Moved > 0 }

// failed reports whether an attempt that ended for reason is a failed
// steal: it selected a victim, then moved nothing.
func failed(reason FailureReason) bool {
	return reason == FailRevalidation || reason == FailEmptyVictim
}

// Counters is the one tally of balancing and fault activity that every
// backend reports, whatever drives it: model rounds, the simulator or
// the executor.
type Counters struct {
	// Rounds counts balancing rounds.
	Rounds int64
	// Steals counts migrated tasks; StealFails counts attempts that
	// selected a victim and then moved nothing (FailRevalidation or
	// FailEmptyVictim) — the paper's failed work-stealing attempts.
	Steals, StealFails int64
	// Faults counts applied fault events, failures and revivals
	// together; Rescued counts tasks Place moved off an offline core —
	// orphans at failure time, and tasks spawned, woken or submitted
	// onto an offline core later; Orphaned counts tasks stranded on
	// offline cores when the counters were read.
	Faults, Rescued, Orphaned int64
}

// CountAttempt counts one steal attempt's migrated tasks, or its failure,
// and reports whether it was a failed steal.
func (c *Counters) CountAttempt(att *Attempt) bool {
	c.Steals += int64(att.Moved)
	if !failed(att.Reason) {
		return false
	}
	c.StealFails++
	return true
}

// CountRound counts one balancing round and every attempt in it.
func (c *Counters) CountRound(rr RoundResult) {
	c.Rounds++
	for i := range rr.Attempts {
		c.CountAttempt(&rr.Attempts[i])
	}
}

// CountFault counts one applied fault event that re-homed rescued
// orphans.
func (c *Counters) CountFault(rescued int) {
	c.Faults++
	c.Rescued += int64(rescued)
}

// RoundResult aggregates the attempts of one balancing round.
type RoundResult struct {
	Attempts []Attempt
}

// Successes counts attempts that moved at least one task.
func (r *RoundResult) Successes() int {
	n := 0
	for i := range r.Attempts {
		if r.Attempts[i].Succeeded() {
			n++
		}
	}
	return n
}

// TasksMoved counts migrated tasks across all attempts.
func (r *RoundResult) TasksMoved() int {
	n := 0
	for i := range r.Attempts {
		n += r.Attempts[i].Moved
	}
	return n
}

// Select runs steps 1 and 2 for thief against the given view of the
// machine: let a RoundObserver observe the view, filter every other core,
// then choose among the survivors. The view may be a stale snapshot (the
// executor's lock-free phase) or the live machine (sequential mode);
// Select never mutates its cores. It returns the attempt with Victim,
// Candidates and, when nothing is stealable, FailNoCandidate.
//
// Select allocates nothing once the view's buffers are sized (its first
// selection): Candidates is this thief's slot of the view's buffers — the
// slot SelectAll fills for the same thief — so it is valid until the next
// selection for that thief on that view, and selecting needs the view's
// owner like any other use of its storage. Selections for other thieves,
// or on other views, leave it alone.
func Select(p Policy, view *Machine, thiefID int) Attempt {
	b := view.selectBuffers()
	observe(p, view)
	return selectInto(p, view, thiefID, b.cands[:0], b.thiefIDs(thiefID, view.NumCores()))
}

// observe shows a RoundObserver the view the selections that follow run
// against.
func observe(p Policy, view *Machine) {
	if obs, ok := p.(RoundObserver); ok {
		obs.BeginRound(view)
	}
}

// selectInto is Select after the observation, appending the filter's
// survivors to candidates and their IDs — the attempt's Candidates — to
// ids, both empty on entry and backed by the view's buffers.
func selectInto(p Policy, view *Machine, thiefID int, candidates []*Core, ids []int) Attempt {
	thief := view.Core(thiefID)
	att := Attempt{Thief: thiefID, Victim: -1}
	if thief.Offline {
		// A fail-stopped core runs nothing, including the balancer.
		att.Reason = FailNoCandidate
		return att
	}
	for _, c := range view.Cores {
		if c.ID == thiefID || c.Offline {
			// Offline cores are not victims: their runqueues are
			// unreachable until a rescue or revive re-homes the work.
			continue
		}
		if p.CanSteal(thief, c) {
			candidates = append(candidates, c)
			ids = append(ids, c.ID)
		}
	}
	if len(candidates) == 0 {
		att.Reason = FailNoCandidate
		return att
	}
	att.Candidates = ids
	chosen := p.Choose(thief, candidates)
	if chosen == nil {
		panic(fmt.Sprintf("sched: policy %q Choose returned nil", p.Name()))
	}
	found := false
	for _, c := range candidates {
		if c == chosen {
			found = true
			break
		}
	}
	if !found {
		// Listing 1's `ensuring(res => cores.contains(res))`: a Choose
		// that escapes its candidate set has broken the contract the
		// proofs rely on.
		panic(fmt.Sprintf("sched: policy %q Choose returned core %d, not among candidates %v",
			p.Name(), chosen.ID, att.Candidates))
	}
	att.Victim = chosen.ID
	return att
}

// DecideSteal is step 3's decision for one thief/victim pair, taken on
// read-only views of the two cores as they are under both runqueue locks:
// re-validate the optimistic selection (Listing 1 line 12), then size the
// steal. On FailNone, n tasks move: when the policy is a TaskPicker, n is
// 1 and the one to move is pick (it must be queued on the victim — the
// mover checks); otherwise pick is nil and the n at the victim's tail
// move, 0 < n <= len(victim.Queued()). Any other reason means nothing moves.
// It allocates nothing itself.
func DecideSteal(p Policy, thief, victim *Core) (n int, pick *Task, reason FailureReason) {
	// A core that fail-stopped since selection can neither steal nor be
	// stolen from — the stale decision dies at re-validation, like any
	// other invalidated optimistic selection.
	if thief.Offline || victim.Offline {
		return 0, nil, FailRevalidation
	}
	// Another core may have stolen from the victim (or handed work to
	// the thief) since the lock-free phase.
	if !p.CanSteal(thief, victim) {
		return 0, nil, FailRevalidation
	}
	if picker, ok := p.(TaskPicker); ok {
		if pick = picker.PickTask(thief, victim); pick != nil {
			n = 1
		}
	} else {
		n = p.StealCount(thief, victim)
	}
	queued := len(victim.Queued())
	switch {
	case n <= 0:
		return 0, nil, FailRevalidation
	case queued == 0:
		return 0, nil, FailEmptyVictim
	case n > queued:
		n = queued
	}
	return n, pick, FailNone
}

// Steal runs step 3 for a previously selected attempt against the live
// machine: DecideSteal on the two live cores, then the migration. It
// mutates m and fills in the attempt's outcome fields. Stealing only
// takes queued tasks, never the victim's current task (a running thread
// cannot be migrated in this model). A standalone Steal is a round of
// one: its MovedTasks replace whatever m's last round or Steal recorded.
func Steal(p Policy, m *Machine, att *Attempt) {
	b := m.scratch()
	b.moved = b.moved[:0]
	steal(p, m, b, att)
}

// steal is Steal inside a round: the moved IDs are appended to the
// round's record in b, m's buffers.
func steal(p Policy, m *Machine, b *buffers, att *Attempt) {
	if att.Victim < 0 {
		return
	}
	thief, victim := m.Core(att.Thief), m.Core(att.Victim)
	n, pick, reason := DecideSteal(p, thief, victim)
	if reason != FailNone {
		att.Reason = reason
		return
	}
	migrate(thief, victim, n, pick, b, att)
}

// migrate is the mechanism half of a steal: move n tasks from victim to
// thief — pick, or the victim's tail when pick is nil — and record them
// in att.MovedTasks, carved from the moved IDs of b's round.
func migrate(thief, victim *Core, n int, pick *Task, b *buffers, att *Attempt) {
	start := len(b.moved)
	att.Reason = FailNone
	for i := 0; i < n; i++ {
		var t *Task
		if pick != nil {
			t = victim.Remove(pick.ID)
		} else {
			t = victim.PopTail()
		}
		if t == nil {
			// The picker named a task that is not queued on the victim:
			// a policy bug the verifier must see, not a crash.
			att.Reason = FailEmptyVictim
			break
		}
		thief.Push(t)
		b.moved = append(b.moved, t.ID)
		att.Moved++
	}
	if len(b.moved) > start {
		// Capped, so an append to one attempt's IDs can never run into
		// the next attempt's.
		att.MovedTasks = b.moved[start:len(b.moved):len(b.moved)]
	}
}

// SequentialRound executes one balancing round in the simplified setting
// of §4.2: each core performs all three steps in isolation, in core-ID
// order, observing the live machine. Steals cannot fail by staleness in
// this mode (the selection is never stale), which is what makes the
// sequential lemmas provable in isolation. The result lives in m's
// buffers: m's next round overwrites it.
func SequentialRound(p Policy, m *Machine) RoundResult {
	b := m.roundBuffers()
	n := m.NumCores()
	for id := 0; id < n; id++ {
		observe(p, m) // the previous core's steal changed the machine
		att := selectInto(p, m, id, b.cands[:0], b.thiefIDs(id, n))
		steal(p, m, b, &att)
		b.done = append(b.done, att)
	}
	return RoundResult{Attempts: b.done}
}

// selectBuffers returns m's buffers sized for selections over its cores.
func (m *Machine) selectBuffers() *buffers {
	b, n := m.scratch(), m.NumCores()
	if cap(b.atts) < n {
		b.atts = make([]Attempt, n)
		b.cands = make([]*Core, 0, n)
		b.candIDs = make([]int, n*n)
		b.done = make([]Attempt, 0, n)
		b.seen = make([]bool, n)
	}
	return b
}

// thiefIDs is the empty slot of candIDs that backs the Candidates of one
// thief's attempt on a machine of n cores.
func (b *buffers) thiefIDs(thief, n int) []int {
	return b.candIDs[thief*n : thief*n : (thief+1)*n]
}

// roundBuffers is selectBuffers with the outcome list and the moved IDs
// emptied: whatever the previous round on m returned is overwritten from
// here on.
func (m *Machine) roundBuffers() *buffers {
	b := m.selectBuffers()
	b.done, b.moved = b.done[:0], b.moved[:0]
	return b
}

// SelectAll runs the lock-free selection phase for every core against one
// shared state of the machine — the maximal-staleness model of §3.1 where
// all cores decide "simultaneously". That state is m itself, observed
// once: selection only reads (policies treat views as read-only by
// contract, and the attempts carry IDs, not pointers), and nothing
// mutates m before the last core has selected, so no snapshot is needed
// to keep the selections mutually consistent. It returns one attempt per
// core, indexed by core ID. The attempts live in m's buffers (see the
// package doc's reuse paragraph): ExecuteSteals keeps them intact, m's
// next selection or SequentialRound overwrites them.
func SelectAll(p Policy, m *Machine) []Attempt {
	b := m.roundBuffers()
	observe(p, m)
	n := m.NumCores()
	atts := b.atts[:n]
	for id := range atts {
		atts[id] = selectInto(p, m, id, b.cands[:0], b.thiefIDs(id, n))
	}
	return atts
}

// ExecuteSteals runs the stealing phase for pre-selected attempts: the
// steals serialize in the given order (the adversary's lock-acquisition
// order), each re-validating its filter under locks against the live
// machine. The attempts slice is not modified; outcomes are returned in
// execution order, in m's buffers: m's next round overwrites them.
func ExecuteSteals(p Policy, m *Machine, atts []Attempt, order []int) RoundResult {
	b := m.roundBuffers()
	if err := checkOrder(order, b.seen[:m.NumCores()]); err != nil {
		panic(err)
	}
	for _, id := range order {
		att := atts[id]
		steal(p, m, b, &att)
		if failed(att.Reason) {
			att.PredecessorSuccess = priorSuccessTouched(b.done, att.Victim, att.Thief)
		}
		b.done = append(b.done, att)
	}
	return RoundResult{Attempts: b.done}
}

// ConcurrentRound executes one balancing round in the optimistic
// concurrent setting of §3.1/§4.3: lock-free selection against the
// round-start state (SelectAll), then steals serialized in the given
// adversarial order with re-validation (ExecuteSteals).
func ConcurrentRound(p Policy, m *Machine, order []int) RoundResult {
	return ExecuteSteals(p, m, SelectAll(p, m), order)
}

// UnsafeConcurrentRound is ConcurrentRound with the step-3 re-validation
// removed (Listing 1 line 12 deleted): each core steals based purely on
// its stale selection. It exists only for the E8 ablation, demonstrating
// why the re-check is load-bearing — without it a steal can empty an
// overloaded victim or even drain a core another thief already drained,
// violating steal soundness. The executor still refuses to move a task
// that no longer exists (that would corrupt the machine rather than model
// a scheduler bug), reporting FailEmptyVictim instead.
func UnsafeConcurrentRound(p Policy, m *Machine, order []int) RoundResult {
	b := m.roundBuffers()
	if err := checkOrder(order, b.seen[:m.NumCores()]); err != nil {
		panic(err)
	}
	atts := SelectAll(p, m)
	// This executor alone reads the round-start state after steals have
	// begun (a picker's stale pick below), so it alone snapshots it.
	picker, _ := p.(TaskPicker)
	var stale *Machine
	if picker != nil {
		if b.stale == nil {
			b.stale = new(Machine)
		}
		stale = b.stale.CopyFrom(m)
	}
	for _, id := range order {
		att := atts[id]
		if att.Victim >= 0 {
			thief, victim := m.Core(att.Thief), m.Core(att.Victim)
			// No re-validation: honor the stale decision blindly — a
			// picker's stale pick is sized against the snapshot too.
			var n int
			if picker != nil {
				if picker.PickTask(stale.Core(att.Thief), stale.Core(att.Victim)) != nil {
					n = 1
				}
			} else {
				n = p.StealCount(thief, victim)
			}
			if q := victim.Queued(); n > len(q) {
				n = len(q)
			}
			att.Reason = FailEmptyVictim
			if n > 0 {
				migrate(thief, victim, n, nil, b, &att)
			}
		}
		b.done = append(b.done, att)
	}
	return RoundResult{Attempts: b.done}
}

// priorSuccessTouched reports whether any already-executed successful
// steal involved core victim or core thief (as either side). Only steals
// mutate runqueues during a round, so a failed re-validation must be
// explained by such a predecessor — the first proof obligation of §4.3.
func priorSuccessTouched(done []Attempt, victim, thief int) bool {
	for i := range done {
		a := &done[i]
		if !a.Succeeded() {
			continue
		}
		if a.Victim == victim || a.Thief == victim || a.Victim == thief || a.Thief == thief {
			return true
		}
	}
	return false
}

// checkOrder reports whether order is a permutation of the core IDs;
// seen is its scratch, one entry per core.
func checkOrder(order []int, seen []bool) error {
	n := len(seen)
	if len(order) != n {
		return fmt.Errorf("sched: order has %d entries for %d cores", len(order), n)
	}
	clear(seen)
	for _, id := range order {
		if id < 0 || id >= n {
			return fmt.Errorf("sched: order contains invalid core ID %d", id)
		}
		if seen[id] {
			return fmt.Errorf("sched: order contains core ID %d twice", id)
		}
		seen[id] = true
	}
	return nil
}

// IdentityOrder returns the order [0, 1, ..., n-1].
func IdentityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}
