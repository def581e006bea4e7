package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	optsched "repro"
	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// pinnedPoll is the job-poll spacing of the benchmark's VerifyClient. The
// client's default is full-jitter backoff from 25ms on the global
// math/rand: every memo miss then carries a uniform 12.5–25ms sleep,
// which is noise larger than a 5ms edit verdict. Pinned to 1ms the jitter
// is below 1ms per verdict; client.default_poll_wait_ms reports what the
// default costs.
const pinnedPoll = time.Millisecond

// daemon is an in-process schedverifyd: the service, its HTTP handler on
// a loopback listener, and the public client talking to it over
// keep-alive HTTP.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	addr   string
	served chan struct{}
	client *optsched.VerifyClient
	rt     *countingTransport
}

// countingTransport counts the client's job polls and, on a traced run,
// records one span per round trip under the client call that issued it.
type countingTransport struct {
	e     *env
	base  *http.Transport
	polls atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "http.other"
	switch {
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		t.polls.Add(1)
		name = "http.poll"
	case req.Method == http.MethodPost:
		name = "http.submit"
	}
	if ref, ok := spanFrom(req.Context()); ok {
		id := t.e.tr.begin(name, ref.id, ref.op)
		defer t.e.tr.end(id)
	}
	return t.base.RoundTrip(req)
}

// startDaemon serves cfg's service on 127.0.0.1:0. Workers is pinned to
// 1 and Parallelism to 2 (one job at a time, its shards on both CPUs):
// with one closed-loop client a second job slot would only idle.
func startDaemon(e *env, dataDir string) (*daemon, error) {
	svc, err := service.New(service.Config{Workers: 1, Parallelism: 2, DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
		rt:     &countingTransport{e: e, base: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	d.client = d.newClient(pinnedPoll)
	return d, nil
}

// newClient is a VerifyClient on the daemon's transport; poll 0 keeps the
// client's defaults.
func (d *daemon) newClient(poll time.Duration) *optsched.VerifyClient {
	return &optsched.VerifyClient{
		BaseURL:         "http://" + d.addr,
		HTTPClient:      &http.Client{Transport: d.rt},
		PollInterval:    poll,
		MaxPollInterval: poll,
	}
}

// close hangs up the client's connections first: a connection the
// transport dialled but never used looks busy to Shutdown for five
// seconds, while one the client has closed is gone at once.
func (d *daemon) close() {
	d.rt.base.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if d.srv.Shutdown(ctx) != nil {
		d.srv.Close()
	}
	<-d.served
	d.svc.Close()
}

// policySource is a DSL policy the benchmark owns clause by clause, so an
// "edit" is a change to one field and the oracle row names the variant.
type policySource struct {
	variant string // oracle row prefix, e.g. "delta2+steal2"
	name    string
	filter  string
	steal   string
	choose  string
	rescue  string // "" omits the clause
}

// delta2Src is Listing 1 of the paper.
var delta2Src = policySource{
	variant: "delta2",
	name:    "delta2",
	filter:  "stealee.load - self.load >= 2",
	steal:   "1",
	choose:  "first",
}

// rescueSrc is Listing 1 plus a rescue rule for fail-stop faults.
var rescueSrc = delta2Src.with("delta2-rescue", func(p *policySource) { p.name = "delta2_rescue"; p.rescue = "min_load" })

func (p policySource) with(variant string, edit func(*policySource)) policySource {
	p.variant = variant
	edit(&p)
	return p
}

// render prints the source with cosmetic noise from rng — a comment and
// per-line indentation — that the daemon's canonical forms must see
// through: the seed changes the bytes submitted, never the work.
func (p policySource) render(rng *rand.Rand) string {
	var b strings.Builder
	pad := func() string { return strings.Repeat(" ", 1+rng.IntN(8)) }
	fmt.Fprintf(&b, "# bench input %08x\npolicy %s {\n", rng.Uint32(), p.name)
	fmt.Fprintf(&b, "%sload = self.ready.size + self.current.size\n", pad())
	fmt.Fprintf(&b, "%sfilter = %s  # %04x\n", pad(), p.filter, rng.IntN(1<<16))
	fmt.Fprintf(&b, "%ssteal = %s\n", pad(), p.steal)
	fmt.Fprintf(&b, "%schoose = %s\n", pad(), p.choose)
	if p.rescue != "" {
		fmt.Fprintf(&b, "%srescue = %s\n", pad(), p.rescue)
	}
	b.WriteString("}\n")
	return b.String()
}

// The benchmark's universes, by oracle label. faults1 is the verifier's
// default 3-core universe with the fail-stop dimension on; wide is the
// smallest 4-core universe that still takes a few ms.
var (
	uFaults1 = statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1}
	uWide    = statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 3}
)

// submission is one request of an op plus what the harness needs to
// check and to replay it: the oracle row, and the factory, forms and
// universe the daemon will derive from the request.
type submission struct {
	req      optsched.VerifyRequest
	row      string
	source   string // DSL text, "" for by-name
	factory  verify.Factory
	forms    map[string]string
	universe statespace.Universe
}

// bySource submits src rendered under rng on universe u (nil: default).
func bySource(src policySource, rng *rand.Rand, label string, u *statespace.Universe) (submission, error) {
	text := src.render(rng)
	ast, err := dsl.Parse(text)
	if err != nil {
		return submission{}, fmt.Errorf("bench source %s: %w", src.variant, err)
	}
	s := submission{
		req:      optsched.VerifyRequest{Source: text},
		row:      src.variant + "@" + label,
		source:   text,
		factory:  func() sched.Policy { return dsl.Compile(ast) },
		forms:    dsl.ComponentForms(ast),
		universe: verify.DefaultUniverse(),
	}
	s.setUniverse(u)
	return s, nil
}

// byName submits a registered policy.
func byName(name, label string, u *statespace.Universe) (submission, error) {
	spec, ok := policy.Lookup(name)
	if !ok {
		return submission{}, fmt.Errorf("bench: policy %q is not registered", name)
	}
	forms, err := spec.ComponentForms()
	if err != nil {
		return submission{}, err
	}
	s := submission{
		req:      optsched.VerifyRequest{Policy: name},
		row:      name + "@" + label,
		factory:  func() sched.Policy { return spec.New(nil) },
		forms:    forms,
		universe: verify.DefaultUniverse(),
	}
	s.setUniverse(u)
	return s, nil
}

func (s *submission) setUniverse(u *statespace.Universe) {
	if u != nil {
		spec := optsched.VerifyServiceUniverse(*u)
		s.req.Universe = &spec
		s.universe = *u
	}
}

// subSpec names one submission: a DSL source of the benchmark's (src) or
// a registered policy (name), on universe u (nil: the default) under its
// oracle label.
type subSpec struct {
	src   *policySource
	name  string
	label string
	u     *statespace.Universe
}

// submissions builds the specs in order, rendering sources under rng.
func submissions(rng *rand.Rand, specs ...subSpec) ([]submission, error) {
	subs := make([]submission, 0, len(specs))
	for _, sp := range specs {
		var s submission
		var err error
		if sp.src != nil {
			s, err = bySource(*sp.src, rng, sp.label, sp.u)
		} else {
			s, err = byName(sp.name, sp.label, sp.u)
		}
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// memoModel predicts the daemon's memo from the public pieces its keys
// are made of: an obligation re-runs unless the same universe, ID and
// canonical forms of the components verify.ObligationDeps lists for it
// were seen before. The harness checks the daemon's miss counters
// against it and replays exactly the predicted re-runs.
type memoModel map[string]bool

// misses returns the obligations of s the memo does not hold, and adds
// them.
func (m memoModel) misses(s submission) []verify.ObligationID {
	var out []verify.ObligationID
	for _, id := range verify.AllObligations() {
		var key strings.Builder
		fmt.Fprintf(&key, "%s|%s", s.universe.Canonical(), id)
		for _, comp := range verify.ObligationDeps(id) {
			fmt.Fprintf(&key, "|%s=%s", comp, s.forms[string(comp)])
		}
		if !m[key.String()] {
			m[key.String()] = true
			out = append(out, id)
		}
	}
	return out
}

// verifyd is what the three daemon workloads share: the daemon, the op's
// submissions, and counters for the per-layer report.
type verifyd struct {
	e    *env
	d    *daemon
	subs []submission
	// Cumulative over ops only (see account).
	hits, misses, polls atomic.Int64
	walBytes, appends   atomic.Int64
}

// follows: the daemon workloads allocate 0.4–0.5 GB/s through parsing,
// state enumeration and JSON, and slow down one for one with the probe's
// memory phases.
func (v *verifyd) follows() follows { return followsMemory }

func (v *verifyd) start(e *env, dataDir string) error {
	v.e = e
	d, err := startDaemon(e, dataDir)
	if err != nil {
		return err
	}
	v.d = d
	return nil
}

func (v *verifyd) close() {
	if v.d != nil {
		v.d.close()
	}
}

// submit sends one submission through client and checks its verdicts.
func (v *verifyd) submit(client *optsched.VerifyClient, s submission, parent, op int) (*verify.Report, error) {
	id := v.e.tr.begin("client.verify", parent, op)
	rep, err := client.Verify(withSpan(context.Background(), id, op), s.req)
	v.e.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.row, err)
	}
	id = v.e.tr.begin("oracle.check", parent, op)
	err = v.e.oracle.check(s.row, rep)
	v.e.tr.end(id)
	return rep, err
}

// memoStats is a point sample of what an op moves in the daemon.
type memoStats struct{ hits, misses, polls int64 }

func (v *verifyd) memoStats() memoStats {
	st := v.d.svc.Stats()
	return memoStats{st.CacheHits, st.CacheMisses, v.d.rt.polls.Load()}
}

// account adds what happened since from to the op-scoped counters, so an
// untimed prepare (flush, re-prime) is not billed to the ops, and
// returns the memo misses — one per obligation that had to run.
func (v *verifyd) account(from memoStats) int64 {
	now := v.memoStats()
	v.hits.Add(now.hits - from.hits)
	v.misses.Add(now.misses - from.misses)
	v.polls.Add(now.polls - from.polls)
	return now.misses - from.misses
}

func (v *verifyd) counters() map[string]float64 {
	return map[string]float64{
		"hits":      float64(v.hits.Load()),
		"misses":    float64(v.misses.Load()),
		"polls":     float64(v.polls.Load()),
		"wal_bytes": float64(v.walBytes.Load()),
		"appends":   float64(v.appends.Load()),
	}
}

// ---- verifyd-cold ----

// coldWorkload: before each op the memo is flushed; the op submits a
// fixed set of five policies and waits for every verdict, so the checkers
// do nearly all the work and HTTP nearly none.
type coldWorkload struct {
	verifyd
	expect int64 // the memo model's prediction of re-runs per op
}

func (w *coldWorkload) clients() int { return 1 }
func (w *coldWorkload) baseOps() int { return 250 }
func (w *coldWorkload) resets() bool { return true }

// coldSet is the op's five submissions: Listing 1 and its
// rescue variant as DSL source, the §4.3 counterexample and the weighted
// balancer by name — all on the 3-core universe with one fault — and
// Listing 1 by name on a 4-core universe.
func coldSet(rng *rand.Rand) ([]submission, error) {
	// The order is part of the op, not of the seed: whichever delta2
	// variant comes first runs the eight obligations the two share, and
	// the rescue variant's compiled policy allocates more per checker
	// call — a seed-shuffled order made allocs_per_op bimodal (647k/656k).
	return submissions(rng,
		subSpec{src: &delta2Src, label: "faults1", u: &uFaults1},
		subSpec{src: &rescueSrc, label: "faults1", u: &uFaults1},
		subSpec{name: "greedy-buggy", label: "faults1", u: &uFaults1},
		subSpec{name: "weighted", label: "faults1", u: &uFaults1},
		subSpec{name: "delta2", label: "wide", u: &uWide},
	)
}

func (w *coldWorkload) setup(e *env) error {
	subs, err := coldSet(newRNG(e.seed, 0xc01d))
	if err != nil {
		return err
	}
	w.subs = subs
	model := memoModel{}
	for _, s := range subs {
		w.expect += int64(len(model.misses(s)))
	}
	return w.start(e, "")
}

func (w *coldWorkload) prepare(int) error {
	_, err := w.d.client.FlushCache(context.Background())
	return err
}

func (w *coldWorkload) op(_, i int) error {
	root := w.e.tr.begin("op", -1, i)
	defer w.e.tr.end(root)
	before := w.memoStats()
	for _, s := range w.subs {
		if _, err := w.submit(w.d.client, s, root, i); err != nil {
			return err
		}
	}
	if got := w.account(before); got != w.expect {
		return fmt.Errorf("cold op re-ran %d obligations, verify.ObligationDeps predicts %d", got, w.expect)
	}
	return nil
}

func (w *coldWorkload) finish() error { return nil }

// ---- verifyd-warm ----

// warmWorkload: the memo is primed in setup; one op is one submit
// answered on the round trip. The checkers do nothing: DSL parsing and
// canonicalisation, key hashing, report encoding and HTTP do everything.
type warmWorkload struct {
	verifyd
	cold   [][]byte  // the priming (cold) verdict's bytes, per ring slot
	start0 memoStats // the daemon's counters when priming ended
}

func (w *warmWorkload) clients() int { return 2 }
func (w *warmWorkload) baseOps() int { return 120_000 }
func (w *warmWorkload) resets() bool { return false }

func (w *warmWorkload) setup(e *env) error {
	rng := newRNG(e.seed, 0x3a73)
	// Source and by-name forms alternate; slots 5 and 7 are the by-name
	// forms of slots 0 and 2 and share their memo cells.
	ring, err := submissions(rng,
		subSpec{src: &delta2Src, label: "faults1", u: &uFaults1},
		subSpec{name: "greedy-buggy", label: "faults1", u: &uFaults1},
		subSpec{src: &rescueSrc, label: "faults1", u: &uFaults1},
		subSpec{name: "weighted", label: "faults1", u: &uFaults1},
		subSpec{src: &delta2Src, label: "wide", u: &uWide},
		subSpec{name: "delta2", label: "faults1", u: &uFaults1},
		subSpec{src: &delta2Src, label: "default"},
		subSpec{name: "delta2-rescue", label: "faults1", u: &uFaults1},
	)
	if err != nil {
		return err
	}
	w.subs = ring
	if err := w.start(e, ""); err != nil {
		return err
	}
	w.cold = make([][]byte, len(ring))
	for i, s := range ring {
		rep, err := w.submit(w.d.client, s, -1, -1)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		if w.cold[i], err = optsched.ReportToJSON(rep); err != nil {
			return err
		}
	}
	w.start0 = w.memoStats()
	return nil
}

func (w *warmWorkload) prepare(int) error { return nil }

// op walks the ring; the two clients start half a ring apart, so source
// and by-name forms are in flight together.
func (w *warmWorkload) op(c, i int) error {
	slot := (i + c*len(w.subs)/2) % len(w.subs)
	root := w.e.tr.begin("op", -1, i)
	defer w.e.tr.end(root)
	rep, err := w.submit(w.d.client, w.subs[slot], root, i)
	if err != nil {
		return err
	}
	warm, err := optsched.ReportToJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(warm, w.cold[slot]) {
		return fmt.Errorf("%s: warm report differs from the cold verdict's bytes", w.subs[slot].row)
	}
	return nil
}

func (w *warmWorkload) finish() error {
	if got := w.memoStats().misses - w.start0.misses; got != 0 {
		return fmt.Errorf("warm run missed the memo %d times, want 0", got)
	}
	return nil
}

// counters: the warm ops are too short to sample the daemon around each
// one, and nothing untimed runs between them, so the daemon's own
// counters since priming are the ops' counters.
func (w *warmWorkload) counters() map[string]float64 {
	now := w.memoStats()
	return map[string]float64{
		"hits":   float64(now.hits - w.start0.hits),
		"misses": float64(now.misses - w.start0.misses),
		"polls":  float64(now.polls - w.start0.polls),
	}
}

// ---- verifyd-edit ----

// editWorkload: a durable memo (WAL with an fsync per append) holds the
// base policy; one op is a six-submission edit cycle, each a one-clause
// change of the base, so only the obligations depending on that clause
// re-run and every re-run is a WAL append beside the memo reads.
type editWorkload struct {
	verifyd
	base   submission
	expect []int64 // predicted re-runs per submission of the cycle
}

func (w *editWorkload) clients() int { return 1 }
func (w *editWorkload) baseOps() int { return 250 }
func (w *editWorkload) resets() bool { return true }

// follows: every re-run is an fsynced append, so the disk's share of the
// op follows the probe's sync phase.
func (w *editWorkload) follows() follows { return followsMemoryAndDisk }

func (w *editWorkload) setup(e *env) error {
	rng := newRNG(e.seed, 0xed17)
	filter3 := delta2Src.with("delta2+filter3", func(p *policySource) { p.filter = "stealee.load - self.load >= 3" })
	steal2 := delta2Src.with("delta2+steal2", func(p *policySource) { p.steal = "2" })
	chooseMax := delta2Src.with("delta2+choose-max", func(p *policySource) { p.choose = "max_load" })
	rescueMin := delta2Src.with("delta2+rescue-min", func(p *policySource) { p.rescue = "min_load" })
	subs, err := submissions(rng,
		subSpec{src: &delta2Src, label: "default"}, // the base
		subSpec{src: &filter3, label: "default"},
		subSpec{src: &steal2, label: "default"},
		subSpec{src: &chooseMax, label: "default"},
		subSpec{src: &rescueMin, label: "default"},
		subSpec{src: &delta2Src, label: "default"}, // comment-only edit: new bytes, same canonical forms
	)
	if err != nil {
		return err
	}
	w.base = subs[0]
	w.subs = append(subs[1:], w.base) // the revert is the base's own bytes
	model := memoModel{}
	model.misses(w.base)
	for _, s := range w.subs {
		w.expect = append(w.expect, int64(len(model.misses(s))))
	}
	dir, err := os.MkdirTemp(e.tmp, "memo-")
	if err != nil {
		return err
	}
	return w.start(e, dir)
}

// prepare flushes the memo (memory and disk) and re-primes the base.
func (w *editWorkload) prepare(int) error {
	if _, err := w.d.client.FlushCache(context.Background()); err != nil {
		return err
	}
	_, err := w.submit(w.d.client, w.base, -1, -1)
	return err
}

func (w *editWorkload) op(_, i int) error {
	root := w.e.tr.begin("op", -1, i)
	defer w.e.tr.end(root)
	wal := *w.d.svc.Stats().Store
	for k, s := range w.subs {
		before := w.memoStats()
		if _, err := w.submit(w.d.client, s, root, i); err != nil {
			return err
		}
		if got := w.account(before); got != w.expect[k] {
			return fmt.Errorf("%s re-ran %d obligations, verify.ObligationDeps predicts %d", s.row, got, w.expect[k])
		}
	}
	st := w.d.svc.Stats().Store
	// The op never flushes and 37 records never reach the compaction
	// threshold, so the WAL only grows across it.
	w.walBytes.Add(st.WALBytes - wal.WALBytes)
	w.appends.Add(int64(st.WALRecords - wal.WALRecords))
	if st.AppendErrors != 0 {
		return fmt.Errorf("durable memo reports %d append errors", st.AppendErrors)
	}
	return nil
}

func (w *editWorkload) finish() error { return nil }
