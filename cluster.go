package optsched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/statespace"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Cluster is the session facade: one configured (policy, topology,
// backend) triple that can execute scenarios on any backend via Run and
// discharge the paper's proof obligations via Verify. Build one with New
// and functional options:
//
//	c, err := optsched.New(
//	    optsched.WithPolicy("delta2"),
//	    optsched.WithTopology(optsched.NUMATopology(2, 4)),
//	    optsched.WithBackend(optsched.BackendSim),
//	)
//	res, err := c.Run(ctx, optsched.SkewedScenario("burst", 400, 1500))
//	rep, err := c.Verify(ctx)
//
// A Cluster is immutable after New and safe for concurrent use — each
// Run and Verify constructs fresh policy instances through the
// cluster's factory — with one exception: a cluster carrying a
// WithTrace ring must not Run concurrently, because the trace ring is
// deliberately unsynchronized (see WithTrace).
type Cluster struct {
	policyName   string
	factory      func() sched.Policy
	spec         *policy.Spec       // set when the policy came from the registry
	policyTop    *topology.Topology // the topology the policy was built over (NeedsTopology specs)
	top          *topology.Topology
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
	fallbacks    int64 // verifyRemote→verifyLocal circuit-open fallbacks (atomic)
}

// options accumulates the functional options before validation.
type options struct {
	cluster     Cluster
	namedPolicy string // WithPolicy
	factoryName string // WithPolicyFactory
	factory     func() sched.Policy
	dslSource   string // WithDSL
	err         error
}

// Option configures a Cluster under construction.
type Option func(*options)

// WithPolicy selects a registered policy by name (see PolicySpecs).
// Topology-needing policies (numa-aware) are built over the cluster's
// topology, or the registry's default 2×4 NUMA machine when none is set.
func WithPolicy(name string) Option {
	return func(o *options) {
		if name == "" {
			o.fail(fmt.Errorf("optsched: WithPolicy with an empty name (omit the option for the delta2 default)"))
			return
		}
		o.namedPolicy = name
	}
}

// WithPolicyFactory installs a custom policy under the given name — the
// escape hatch for policies written as plain Go outside the registry.
// The factory must return a fresh instance per call and be safe for
// concurrent calls (Verify fans sharded obligation checks out over a
// worker pool).
func WithPolicyFactory(name string, factory func() Policy) Option {
	return func(o *options) {
		if name == "" || factory == nil {
			o.fail(fmt.Errorf("optsched: WithPolicyFactory needs a name and a factory"))
			return
		}
		o.factoryName = name
		o.factory = func() sched.Policy { return factory() }
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

// WithTopology sets the machine topology: the default machine width, the
// group assignment scenarios inherit, and the distance metric
// NUMA-aware policies consult.
func WithTopology(top *Topology) Option {
	return func(o *options) {
		if top == nil {
			o.fail(fmt.Errorf("optsched: WithTopology(nil)"))
			return
		}
		if err := top.Validate(); err != nil {
			o.fail(err)
			return
		}
		o.cluster.top = top
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
// latency and the daemon's stats. Tune the resilience knobs through
// VerifyServiceClient before the first Verify.
//
// Only registry policies (WithPolicy) and DSL policies (WithDSL) can be
// shipped over the wire; WithPolicyFactory closures cannot, and the
// combination is rejected by New. Registry policies are resolved
// against the daemon's registry by name, topology-needing ones over the
// daemon's default topology. The daemon's own -maxrounds setting
// governs the sequential work-conservation bound; WithParallelism is
// ignored (the daemon's worker pool applies, and parallelism never
// changes verdicts).
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
// conflicting policy sources, malformed topology) returns an error
// rather than surfacing later in Run.
func New(opts ...Option) (*Cluster, error) {
	o := &options{}
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}
	c := o.cluster

	// Resolve the policy source: registry name, custom factory, or DSL.
	sources := 0
	if o.factory != nil {
		sources++
	}
	if o.dslSource != "" {
		sources++
	}
	if o.namedPolicy != "" {
		sources++
	}
	if sources > 1 {
		return nil, fmt.Errorf("optsched: WithPolicy, WithPolicyFactory and WithDSL are mutually exclusive")
	}
	switch {
	case o.factory != nil:
		c.policyName = o.factoryName
		c.factory = o.factory
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
		top := c.top
		if spec.NeedsTopology() {
			if top == nil {
				top = policy.DefaultTopology()
			}
			c.policyTop = top
		}
		c.policyName = name
		c.spec = &spec
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
	if c.verifyURL != "" && o.factory != nil {
		return nil, fmt.Errorf("optsched: WithVerifyService cannot ship a WithPolicyFactory closure; use WithPolicy or WithDSL")
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

// PolicySpec returns the registry metadata of the cluster's policy, or
// false for custom-factory and DSL policies.
func (c *Cluster) PolicySpec() (PolicySpec, bool) {
	if c.spec == nil {
		return PolicySpec{}, false
	}
	return *c.spec, true
}

// Topology returns the cluster's topology, or nil when none was set.
func (c *Cluster) Topology() *Topology { return c.top }

// Backend returns the cluster's execution backend.
func (c *Cluster) Backend() Backend { return c.backend }

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
// scenario: the scenario's own values win, then the cluster topology,
// then an 8-core flat default.
func (c *Cluster) layout(sc Scenario) (int, []int, error) {
	cores := sc.Cores
	if cores <= 0 {
		cores = 8
		if c.top != nil {
			cores = c.top.NCores
		}
	}
	// A topology-built policy consults per-core distances; a machine
	// wider than its topology would index past NodeOf.
	if c.policyTop != nil && cores > c.policyTop.NCores {
		return 0, nil, fmt.Errorf(
			"optsched: policy %q is built over a %d-core topology but the scenario needs %d cores (set WithTopology)",
			c.policyName, c.policyTop.NCores, cores)
	}
	groups := sc.Groups
	if groups == nil && c.top != nil && c.top.NCores == cores {
		groups = append([]int(nil), c.top.NodeOf...)
	}
	if err := sc.validate(cores); err != nil {
		return 0, nil, err
	}
	return cores, groups, nil
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
	if c.policyTop != nil && uCores > c.policyTop.NCores {
		return nil, fmt.Errorf(
			"optsched: policy %q is built over a %d-core topology but the universe has %d cores (set WithTopology)",
			c.policyName, c.policyTop.NCores, uCores)
	}
	return verify.PolicyContext(ctx, c.policyName, c.factory, cfg)
}

// verifyRemote discharges the obligations through the schedverifyd
// daemon configured by WithVerifyService (see VerifyClient).
func (c *Cluster) verifyRemote(ctx context.Context) (*Report, error) {
	req := service.Request{}
	switch {
	case c.spec != nil:
		req.Policy = c.spec.Name
	case c.dslSource != "":
		req.Source = c.dslSource
	default:
		// New rejects WithPolicyFactory+WithVerifyService, and the default
		// policy is the registry's delta2; policyName is always a registry
		// name here.
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
		atomic.AddInt64(&c.fallbacks, 1)
		return c.verifyLocal(ctx)
	}
	return rep, err
}

// VerifyServiceStatus is the cluster-level health view of the
// WithVerifyService delegation: the resilient client's circuit-breaker
// snapshot plus how many Verify calls the breaker diverted to local
// in-process verification.
type VerifyServiceStatus struct {
	// Breaker is the shared VerifyClient's breaker snapshot.
	Breaker BreakerState
	// LocalFallbacks counts Verify calls that returned a locally
	// computed report because the breaker was open.
	LocalFallbacks int64
}

// VerifyServiceStatus reports the verify-service delegation's health.
// The second return is false when the cluster was built without
// WithVerifyService (there is no delegation to report on).
func (c *Cluster) VerifyServiceStatus() (VerifyServiceStatus, bool) {
	if c.verifyClient == nil {
		return VerifyServiceStatus{}, false
	}
	return VerifyServiceStatus{
		Breaker:        c.verifyClient.Breaker(),
		LocalFallbacks: atomic.LoadInt64(&c.fallbacks),
	}, true
}

// VerifyServiceClient returns the shared resilient client behind
// WithVerifyService (nil without that option). Its backoff and breaker
// knobs may be tuned before the first Verify; the client must be reused
// as-is afterwards, since the circuit breaker accumulates state across
// calls.
func (c *Cluster) VerifyServiceClient() *VerifyClient { return c.verifyClient }
