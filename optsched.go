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
// is the Cluster facade: configure one (policy, topology, backend)
// triple with functional options, then run any scenario on any
// execution substrate and verify the policy's proof obligations —
//
//	c, err := optsched.New(
//	    optsched.WithPolicy("delta2"),
//	    optsched.WithTopology(optsched.NUMATopology(2, 4)),
//	    optsched.WithBackend(optsched.BackendSim),
//	)
//	res, err := c.Run(ctx, optsched.SkewedScenario("burst", 400, 1500))
//	rep, err := c.Verify(ctx)
//
// The same Cluster.Run call executes the scenario on the bare model
// (BackendModel), the discrete-event simulator (BackendSim) or the real
// work-stealing executor (BackendExecutor), returning one common Result
// type — the paper's "prove once, run anywhere" claim as an API.
//
// Beside the Cluster, the package exports only what the commands,
// examples and benchmarks call: the round primitives a machine is
// stepped with, the policy registry's listing, the DSL front end and
// the verify-service client. The full surface (simulator behaviors,
// workloads, verifier, executor) lives in the internal packages,
// documented in README.md.
package optsched

import (
	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Core model types (see internal/sched).
type (
	// Policy is the paper's three-step policy abstraction.
	Policy = sched.Policy
	// FuncPolicy assembles a Policy from closures.
	FuncPolicy = sched.FuncPolicy
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

// Topology types (see internal/topology).
type (
	// Topology describes NUMA nodes and the distances between them.
	Topology = topology.Topology
)

// MachineFromLoads builds a machine from per-core thread counts.
var MachineFromLoads = sched.MachineFromLoads

// Round execution: the three steps of Figure 1.
var (
	// SequentialRound executes a §4.2 non-overlapping round.
	SequentialRound = sched.SequentialRound
	// ConcurrentRound executes a §3.1 optimistic round with the given
	// adversarial steal order.
	ConcurrentRound = sched.ConcurrentRound
	// PairwiseImbalance computes the §4.3 potential function d.
	PairwiseImbalance = sched.PairwiseImbalance
)

// Built-in policies.
var (
	// NewDelta2 is Listing 1's simple balancer (proved work-conserving).
	NewDelta2 = policy.NewDelta2
	// NewPolicy looks up a built-in policy by name.
	NewPolicy = policy.New
	// PolicySpecs lists the built-in policies with their registry
	// metadata (provenance, topology needs, one-line docs), sorted.
	PolicySpecs = policy.Specs
)

// Topologies.
var (
	// NUMATopology builds nodes × perNode cores.
	NUMATopology = topology.NUMA
	// AssignGroups stamps a machine's cores with the topology's node
	// assignment (Group and Node per core).
	AssignGroups = policy.AssignGroups
)

// DSL entry points.
var (
	// ParsePolicy parses and type-checks DSL source.
	ParsePolicy = dsl.Parse
	// GeneratePolicyGo emits Go source for a parsed DSL policy.
	GeneratePolicyGo = dsl.Generate
)

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
