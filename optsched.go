// Package optsched is a Go reproduction of "Towards Proving Optimistic
// Multicore Schedulers" (Lepers et al., HotOS 2017): a multicore
// scheduler model built on the paper's three-step load-balancing
// abstraction (Filter → Choose → Steal), a bounded model checker that
// stands in for the paper's Leon verifier, a policy DSL with execution
// and code-generation backends, a discrete-event simulator reproducing
// the wasted-cores motivation, and a real work-stealing executor running
// the verified protocol.
//
// This top-level package is the curated public surface. The session API
// is the Cluster facade: configure one (policy, backend) pair with
// functional options, then run any scenario on any execution substrate
// and verify the policy's proof obligations —
//
//	c, err := optsched.New(
//	    optsched.WithPolicy("delta2"),
//	    optsched.WithBackend(optsched.BackendSim),
//	)
//	res, err := c.Run(ctx, optsched.Scenario{Name: "burst", // 400 tasks born on core 0
//	    Batches: []optsched.Batch{{Core: 0, Tasks: 400, Work: 1500}}})
//	rep, err := c.Verify(ctx)
//
// The same Cluster.Run call executes the scenario on the bare model
// (BackendModel), the discrete-event simulator (BackendSim) or the real
// work-stealing executor (BackendExecutor), returning one common Result
// type — the paper's "prove once, run anywhere" claim as an API.
//
// Beside the Cluster, the package exports only what a command or the
// benchmark calls: the policy registry's listing, the verify-service
// client and the trace ring. The full surface (model rounds, simulator
// behaviors, workloads, verifier, DSL, executor) lives in the internal
// packages, documented in README.md; example_test.go drives it.
package optsched

import (
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Core model types (see internal/sched).
type (
	// Policy is the paper's three-step policy abstraction.
	Policy = sched.Policy
	// Counters tallies rounds, steals, failed steals and faults: the
	// shared part of every backend's Result.
	Counters = sched.Counters
)

// Verification types (see internal/verify).
type (
	// Report aggregates proof-obligation results for one policy.
	Report = verify.Report
	// ObligationID names one proof obligation.
	ObligationID = verify.ObligationID
	// Universe bounds the state space the checker quantifies over.
	Universe = statespace.Universe
)

// PolicySpecs lists the built-in policies with their registry metadata
// (provenance, topology needs, one-line docs), sorted.
var PolicySpecs = policy.Specs

// SimStats is the simulator's measurement snapshot of a run (see
// internal/sim for the full workload API).
type SimStats = sim.Stats

// Tracing (see internal/trace).
type (
	// TraceRing is a fixed-capacity ring buffer of scheduler trace
	// events, attachable to the simulator backend via WithTrace.
	TraceRing = trace.Ring
)

// NewTraceRing builds a trace ring holding the last n events.
var NewTraceRing = trace.NewRing
