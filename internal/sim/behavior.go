package sim

import "fmt"

// ThenKind is what a task does after finishing a run slice.
type ThenKind int8

const (
	// ThenExit terminates the task.
	ThenExit ThenKind = iota
	// ThenBlock suspends the task for Action.BlockFor ticks (I/O, sleep).
	ThenBlock
	// ThenYield requeues the task behind its core's other ready tasks.
	ThenYield
	// ThenBarrier joins Action.Barrier; the task blocks until the
	// barrier's membership count is reached, which releases everyone.
	ThenBarrier
)

// Action is one step of a task's life: compute for RunFor ticks, then
// transition.
type Action struct {
	// RunFor is the CPU time consumed before the transition, ≥ 1.
	RunFor int64
	// Then is the transition.
	Then ThenKind
	// BlockFor is the suspension length for ThenBlock.
	BlockFor int64
	// Barrier is the rendezvous for ThenBarrier.
	Barrier *Barrier
}

// Behavior generates a task's actions. Next is called when the previous
// action's run completes (and once at task start); the returned action's
// RunFor is clamped to ≥ 1.
type Behavior interface {
	Next(now int64, rng *RNG) Action
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(now int64, rng *RNG) Action

// Next implements Behavior.
func (f BehaviorFunc) Next(now int64, rng *RNG) Action { return f(now, rng) }

// RunOnce returns a behavior that computes for d ticks and exits — a
// batch job or one database request's service time.
func RunOnce(d int64) Behavior {
	return BehaviorFunc(func(int64, *RNG) Action {
		return Action{RunFor: d, Then: ThenExit}
	})
}

// RunForever returns a behavior that never finishes — the paper's
// "scientific application" spinner or a polling thread. Its long slices
// are still preempted at the quantum, so it shares its core fairly.
func RunForever(slice int64) Behavior {
	return BehaviorFunc(func(int64, *RNG) Action {
		return Action{RunFor: slice, Then: ThenYield}
	})
}

// Barrier is a cyclic rendezvous for ThenBarrier actions: when Need tasks
// have arrived, all of them are released and the generation counter
// increments. It reproduces the synchronization pattern of the paper's
// barrier-based scientific applications, where one straggler core stalls
// every participant.
type Barrier struct {
	// Need is the number of participants per generation.
	Need int
	// Generation counts completed rendezvous.
	Generation int64

	waiting []int64 // blocked task IDs
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewBarrier(%d)", n))
	}
	return &Barrier{Need: n}
}

// BarrierLoop returns a behavior computing `work` ticks then joining b,
// for iters generations (0 = forever), then exiting.
func BarrierLoop(b *Barrier, work int64, iters int64) Behavior {
	var done int64
	return BehaviorFunc(func(int64, *RNG) Action {
		if iters > 0 && done >= iters {
			return Action{RunFor: 1, Then: ThenExit}
		}
		done++
		return Action{RunFor: work, Then: ThenBarrier, Barrier: b}
	})
}
