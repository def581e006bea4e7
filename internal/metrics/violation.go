package metrics

// ViolationTracker quantifies work-conservation violations over a
// simulation: the time integral of "cores idle while at least one core is
// overloaded". This is the paper's §1 "wasted cores" quantity — the CPU
// capacity thrown away by a non-work-conserving scheduler.
type ViolationTracker struct {
	idleWhileOver TimeWeighted
	idle          TimeWeighted
	lastViolating bool
	episodes      int64
	episodeStart  int64
	longest       int64
}

// NewViolationTracker starts tracking at time t.
func NewViolationTracker(t int64) *ViolationTracker {
	v := &ViolationTracker{}
	v.idleWhileOver.Observe(t, 0)
	v.idle.Observe(t, 0)
	return v
}

// Observe records the machine occupancy at time t: the number of idle
// cores and whether any core is overloaded.
func (v *ViolationTracker) Observe(t int64, idleCores int, anyOverloaded bool) {
	violating := idleCores > 0 && anyOverloaded
	wasted := 0
	if violating {
		wasted = idleCores
	}
	v.idleWhileOver.Observe(t, float64(wasted))
	v.idle.Observe(t, float64(idleCores))
	if violating && !v.lastViolating {
		v.episodes++
		v.episodeStart = t
	}
	if !violating && v.lastViolating {
		if d := t - v.episodeStart; d > v.longest {
			v.longest = d
		}
	}
	v.lastViolating = violating
}

// WastedCoreSeconds returns ∫(idle cores while overloaded exists) dt up
// to time t, in the caller's time unit.
func (v *ViolationTracker) WastedCoreSeconds(t int64) float64 {
	return v.idleWhileOver.IntegralAt(t)
}

// IdleCoreSeconds returns total idle core-time (violating or not).
func (v *ViolationTracker) IdleCoreSeconds(t int64) float64 {
	return v.idle.IntegralAt(t)
}

// Episodes counts distinct violation intervals (transitions into the
// violating state). Transient violations are legal per §3.2 — it is
// persistence that matters, visible as few long episodes vs many short
// ones.
func (v *ViolationTracker) Episodes() int64 { return v.episodes }

// LongestEpisodeAt returns the duration of the longest violation episode
// observed up to time t, counting a still-open episode as running through
// t. Episode length is the §3.2 persistence measure: the same wasted
// core-time is far worse as one long starvation interval than as many
// transient blips, and it is episode length that correlates with tail
// (p99+) latency inflation in the open-loop sweeps.
func (v *ViolationTracker) LongestEpisodeAt(t int64) int64 {
	longest := v.longest
	if v.lastViolating {
		if d := t - v.episodeStart; d > longest {
			longest = d
		}
	}
	return longest
}
