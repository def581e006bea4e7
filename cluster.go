package optsched

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/statespace"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Cluster is the session facade: one configured (policy, backend) pair
// that can execute scenarios on any backend via Run and discharge the
// paper's proof obligations via Verify. Build one with New and
// functional options:
//
//	c, err := optsched.New(
//	    optsched.WithPolicy("delta2"),
//	    optsched.WithBackend(optsched.BackendSim),
//	)
//	res, err := c.Run(ctx, optsched.Scenario{Name: "burst", // 400 tasks born on core 0
//	    Batches: []optsched.Batch{{Core: 0, Tasks: 400, Work: 1500}}})
//	rep, err := c.Verify(ctx)
//
// Its options are what a command or the benchmark sets; a policy
// written as Go outside the registry is verified through
// internal/verify directly (see Example_verifyPolicy).
//
// A Cluster is immutable after New and safe for concurrent use — each
// Run and Verify constructs fresh policy instances through the
// cluster's factory — with one exception: a cluster carrying a
// WithTrace ring must not Run concurrently, because the trace ring is
// deliberately unsynchronized (see WithTrace).
type Cluster struct {
	policyName   string
	factory      func() sched.Policy
	policyTop    *topology.Topology // the topology the policy was built over (NeedsTopology specs)
	backend      Backend
	seed         uint64
	sequential   bool
	parallelism  int
	universe     statespace.Universe
	hasUniverse  bool
	obligations  []verify.ObligationID
	ring         *trace.Ring
	dslSource    string // set when the policy came from WithDSL
	verifyURL    string // set by WithVerifyService: Verify delegates here
	verifyClient *VerifyClient
}

// options accumulates the functional options before validation.
type options struct {
	cluster     Cluster
	namedPolicy string // WithPolicy
	dslSource   string // WithDSL
	err         error
}

// Option configures a Cluster under construction.
type Option func(*options)

// WithPolicy selects a registered policy by name (see PolicySpecs).
// Topology-needing policies (numa-aware) are built over the registry's
// default 2×4 NUMA machine.
func WithPolicy(name string) Option {
	return func(o *options) {
		if name == "" {
			o.fail(fmt.Errorf("optsched: WithPolicy with an empty name (omit the option for the delta2 default)"))
			return
		}
		o.namedPolicy = name
	}
}

// WithDSL compiles a policy written in the scheduling DSL and installs
// it as the cluster's policy. Compilation errors surface from New.
func WithDSL(source string) Option {
	return func(o *options) {
		if source == "" {
			o.fail(fmt.Errorf("optsched: WithDSL with empty source"))
			return
		}
		o.dslSource = source
	}
}

// WithBackend selects the execution substrate for Run: BackendModel,
// BackendSim or BackendExecutor (default BackendModel).
func WithBackend(b Backend) Option {
	return func(o *options) {
		if b == nil {
			o.fail(fmt.Errorf("optsched: WithBackend(nil)"))
			return
		}
		o.cluster.backend = b
	}
}

// WithSeed fixes the deterministic RNG driving concurrent-round steal
// orders and the simulator. Zero selects the default seed 1 (the
// simulator's own convention), so seeds 0 and 1 are the same run.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.cluster.seed = seed }
}

// WithSequentialRounds switches the model and simulator backends to the
// §4.2 non-overlapping round mode instead of the default §3.1 optimistic
// concurrent mode.
func WithSequentialRounds() Option {
	return func(o *options) { o.cluster.sequential = true }
}

// WithParallelism bounds the worker pool Verify's sharded driver uses:
// at most n shard checks run concurrently across all obligations
// (default GOMAXPROCS). The level changes only wall-clock time —
// verdicts, counters and witnesses are identical at every n, because
// the universe's shard partition is fixed per machine and refutations
// merge in deterministic enumeration order.
func WithParallelism(n int) Option {
	return func(o *options) {
		if n <= 0 {
			o.fail(fmt.Errorf("optsched: WithParallelism(%d) (need n >= 1; omit the option for GOMAXPROCS)", n))
			return
		}
		o.cluster.parallelism = n
	}
}

// WithTrace attaches a ring buffer that receives the simulator
// backend's trace events (spawns, steals, violations); the other
// backends ignore it. The ring is unsynchronized (tracing stays cheap
// on the simulator's hot path), so a cluster carrying one must not
// Run concurrently — use one cluster per concurrent run instead.
func WithTrace(ring *TraceRing) Option {
	return func(o *options) { o.cluster.ring = ring }
}

// WithVerifyService delegates Verify to a running schedverifyd daemon
// at the given base URL (e.g. "http://127.0.0.1:8377") instead of
// checking in-process. The daemon memoizes per-obligation results under
// content hashes, so repeated verification of unchanged policies
// returns without re-running any checker, and an edited policy re-runs
// only the obligations the edit invalidates.
//
// The delegation is resilient: the cluster keeps one VerifyClient
// (retries with jittered backoff, honors Retry-After, circuit breaker —
// see VerifyClient) across Verify calls, and when the breaker is open —
// the daemon is down or persistently failing — Verify transparently
// falls back to local in-process verification. Reports are
// byte-identical either way, so the fallback is observable only through
// latency and the daemon's stats.
//
// Registry policies (WithPolicy) are resolved against the daemon's
// registry by name, topology-needing ones over the daemon's default
// topology; DSL policies (WithDSL) ship their source. The daemon's own
// -maxrounds setting governs the sequential work-conservation bound;
// WithParallelism is ignored (the daemon's worker pool applies, and
// parallelism never changes verdicts).
func WithVerifyService(baseURL string) Option {
	return func(o *options) {
		if baseURL == "" {
			o.fail(fmt.Errorf("optsched: WithVerifyService with an empty URL"))
			return
		}
		o.cluster.verifyURL = baseURL
	}
}

// WithUniverse sets the bounded state space Verify quantifies over
// (default: the verifier's 3-core, 5-thread universe).
func WithUniverse(u Universe) Option {
	return func(o *options) {
		o.cluster.universe = u
		o.cluster.hasUniverse = true
	}
}

// WithObligations restricts Verify to the given proof obligations
// (default: all). At least one obligation is required — an empty
// restriction would make Verify vacuously pass.
func WithObligations(ids ...ObligationID) Option {
	return func(o *options) {
		if len(ids) == 0 {
			o.fail(fmt.Errorf("optsched: WithObligations needs at least one obligation (omit the option for all)"))
			return
		}
		o.cluster.obligations = ids
	}
}

func (o *options) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// New builds a Cluster from functional options. Every option is
// validated here — an invalid combination (unknown policy, broken DSL,
// conflicting policy sources) returns an error rather than surfacing
// later in Run.
func New(opts ...Option) (*Cluster, error) {
	o := &options{}
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}
	c := o.cluster

	// Resolve the policy source: registry name or DSL.
	if o.namedPolicy != "" && o.dslSource != "" {
		return nil, fmt.Errorf("optsched: WithPolicy and WithDSL are mutually exclusive")
	}
	switch {
	case o.dslSource != "":
		ast, err := dsl.Parse(o.dslSource)
		if err != nil {
			return nil, err
		}
		c.policyName = ast.Name
		c.dslSource = o.dslSource
		c.factory = func() sched.Policy { return dsl.Compile(ast) }
	default:
		name := o.namedPolicy
		if name == "" {
			name = "delta2"
		}
		spec, ok := policy.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("optsched: unknown policy %q (known: %v)", name, policy.Names())
		}
		if spec.NeedsTopology() {
			c.policyTop = policy.DefaultTopology()
		}
		top := c.policyTop
		c.policyName = name
		c.factory = func() sched.Policy { return spec.New(top) }
	}

	if c.hasUniverse {
		if c.universe.Cores <= 0 {
			return nil, fmt.Errorf("optsched: WithUniverse needs Cores > 0 (the verifier would silently substitute its default universe)")
		}
		if err := c.universe.Validate(); err != nil {
			return nil, err
		}
	}
	for _, id := range c.obligations {
		if !verify.KnownObligation(id) {
			return nil, fmt.Errorf("optsched: unknown obligation %q (known: %v)",
				id, verify.AllObligations())
		}
	}

	if c.backend == nil {
		c.backend = BackendModel
	}
	if c.seed == 0 {
		c.seed = 1
	}
	if c.verifyURL != "" {
		c.verifyClient = &VerifyClient{BaseURL: c.verifyURL}
	}
	return &c, nil
}

// PolicyName returns the configured policy's name.
func (c *Cluster) PolicyName() string { return c.policyName }

// NewPolicy returns an instance of the cluster's policy: a fresh one if
// the policy carries state — per-round caches, a chooser's rng — that
// must not be shared across machines or workers, possibly a shared one
// if it carries none.
func (c *Cluster) NewPolicy() Policy { return c.factory() }

// Seed returns the deterministic RNG seed (never zero).
func (c *Cluster) Seed() uint64 { return c.seed }

// Sequential reports whether rounds run in the §4.2 sequential mode.
func (c *Cluster) Sequential() bool { return c.sequential }

// Run executes the scenario on the cluster's backend and returns the
// unified measurement snapshot. It honors ctx: cancellation makes Run
// return ctx's error promptly. The model and simulator backends stop
// computing at that point; the executor cannot un-submit queued work,
// so its pool keeps draining in the background (see BackendExecutor).
func (c *Cluster) Run(ctx context.Context, sc Scenario) (*Result, error) {
	if sc.Workload != nil && c.backend != BackendSim {
		return nil, fmt.Errorf("optsched: scenario %q carries a simulator-native workload; backend %s needs Batches",
			sc.Name, c.backend.Name())
	}
	cores, groups, err := c.layout(sc)
	if err != nil {
		return nil, err
	}
	return c.backend.Execute(ctx, c, sc, cores, groups)
}

// layout resolves the machine width and group assignment for a
// scenario: the scenario's own values, else an 8-core flat machine.
func (c *Cluster) layout(sc Scenario) (int, []int, error) {
	cores := sc.Cores
	if cores <= 0 {
		cores = 8
	}
	if err := c.fitsTopology(cores, "the scenario needs"); err != nil {
		return 0, nil, err
	}
	if err := sc.validate(cores); err != nil {
		return 0, nil, err
	}
	return cores, sc.Groups, nil
}

// Verify discharges the paper's proof obligations for the cluster's
// policy over the configured universe. Each obligation's state space is
// split into disjoint shards that drain through one worker pool (size
// WithParallelism, default GOMAXPROCS), and the whole suite aborts
// early when ctx is cancelled, returning the partial report alongside
// ctx's error. Reports are deterministic: the parallelism level never
// changes verdicts, counters or witnesses.
func (c *Cluster) Verify(ctx context.Context) (*Report, error) {
	if c.verifyURL != "" {
		return c.verifyRemote(ctx)
	}
	return c.verifyLocal(ctx)
}

// verifyLocal is the in-process verification path — the default, and
// the fallback when the verify-service circuit breaker is open.
func (c *Cluster) verifyLocal(ctx context.Context) (*Report, error) {
	cfg := verify.Config{Obligations: c.obligations, Parallelism: c.parallelism}
	if c.hasUniverse {
		cfg.Universe = c.universe
	}
	uCores := cfg.Universe.Cores
	if uCores == 0 {
		uCores = verify.DefaultUniverse().Cores
	}
	if err := c.fitsTopology(uCores, "the universe has"); err != nil {
		return nil, err
	}
	return verify.PolicyContext(ctx, c.policyName, c.factory, cfg)
}

// fitsTopology rejects a machine of the given width (what names it in
// the error) when the policy was built over a narrower topology: its
// per-core distances would index past NodeOf.
func (c *Cluster) fitsTopology(cores int, what string) error {
	if c.policyTop == nil || cores <= c.policyTop.NCores {
		return nil
	}
	return fmt.Errorf("optsched: policy %q is built over the registry's default %d-core topology but %s %d cores",
		c.policyName, c.policyTop.NCores, what, cores)
}

// verifyRemote discharges the obligations through the schedverifyd
// daemon configured by WithVerifyService (see VerifyClient).
func (c *Cluster) verifyRemote(ctx context.Context) (*Report, error) {
	// A policy that is not DSL source is a registry policy, named by
	// policyName.
	req := service.Request{Source: c.dslSource}
	if c.dslSource == "" {
		req.Policy = c.policyName
	}
	if c.hasUniverse {
		u := service.UniverseSpecOf(c.universe)
		req.Universe = &u
	}
	for _, id := range c.obligations {
		req.Obligations = append(req.Obligations, string(id))
	}
	rep, err := c.verifyClient.Verify(ctx, req)
	if errors.Is(err, ErrCircuitOpen) {
		// The daemon is down or persistently failing: the session still
		// owes its caller a verdict, and the local driver produces the
		// byte-identical report (only slower, with no memoization).
		return c.verifyLocal(ctx)
	}
	return rep, err
}
