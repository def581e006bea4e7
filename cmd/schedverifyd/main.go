// Command schedverifyd is the incremental verification daemon: a
// long-running HTTP/JSON service that memoizes per-obligation
// verification results under content hashes, so resubmitting an
// unchanged policy returns instantly and an edited policy re-runs only
// the obligations the edit invalidates.
//
//	schedverifyd -addr :8377 -workers 2 -queue 64 -data-dir /var/lib/schedverifyd
//
// With -data-dir the memo is durable: every result is appended to the
// directory's one file, wal.log, and fsynced before it is served; the
// WAL is periodically rewritten to one frame per result and recovered at
// startup — a crashed or restarted daemon serves warm verdicts
// byte-identically with zero obligation re-runs, truncating (never
// replaying) any torn final write.
//
// API (see internal/service):
//
//	POST   /v1/verify     submit {"policy": "delta2"} or {"source": "policy ..."};
//	                      ?wait=30s holds the answer until the verdict (200),
//	                      answering 202 only for a job that outlasts it
//	GET    /v1/jobs/{id}  poll a queued job; ?wait=30s holds the answer until
//	                      the verdict (the poll URL in a 202 asks for that)
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /v1/stats      cache, queue and durable-store counters
//	DELETE /v1/cache      admin flush of the memo (memory + disk)
//	GET    /healthz       liveness
//	GET    /readyz        readiness; 503 while draining toward shutdown
//
// On SIGTERM/SIGINT the daemon drains: /readyz flips to 503, new
// submissions are rejected, in-flight jobs get -drain-timeout to
// finish (polls keep working so clients can collect reports), then
// whatever remains is cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/faultinject"
	"repro/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main minus the process exit, for tests. When ready is non-nil
// it receives the bound address once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("schedverifyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 64, "job queue depth; a full queue answers 429 with Retry-After")
	workers := fs.Int("workers", 2, "concurrent verification jobs")
	parallel := fs.Int("parallel", 0, "per-job shard worker pool size (0 = GOMAXPROCS)")
	maxRounds := fs.Int("maxrounds", verify.DefaultMaxRounds, "sequential work-conservation round bound")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff advertised on 429 responses")
	dataDir := fs.String("data-dir", "", "durable memo store directory (empty = in-memory only)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "in-flight job drain budget on SIGTERM before cancellation")
	faultSpec := fs.String("faults", "", "hidden: fault-injection spec for chaos testing, e.g. 'wal-append:torn=5@2,checker:panic=lemma1' (see internal/service/faultinject)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "schedverifyd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	faults, err := faultinject.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "schedverifyd: %v\n", err)
		return 2
	}

	d, err := startDaemon(*addr, service.Config{
		QueueDepth:  *queue,
		Workers:     *workers,
		Parallelism: *parallel,
		MaxRounds:   *maxRounds,
		RetryAfter:  *retryAfter,
		DataDir:     *dataDir,
	}, service.WithFaults(faults))
	if err != nil {
		fmt.Fprintf(stderr, "schedverifyd: %v\n", err)
		return 1
	}
	if st := d.svc.Stats(); st.Store != nil {
		fmt.Fprintf(stdout, "schedverifyd: durable memo at %s: %d results recovered from %d WAL records (%d bytes truncated as torn/corrupt)\n",
			*dataDir, st.CacheEntries, st.Store.RecoveredRecords, st.Store.TruncatedBytes)
	}
	fmt.Fprintf(stdout, "schedverifyd listening on http://%s\n", d.Addr())
	if ready != nil {
		ready <- d.Addr()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintf(stdout, "schedverifyd: draining (budget %s)\n", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		d.Shutdown(shutdownCtx)
	}()

	if err := d.Serve(); err != nil {
		fmt.Fprintf(stderr, "schedverifyd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "schedverifyd: shut down")
	return 0
}

// daemon couples one service instance to one HTTP listener.
type daemon struct {
	svc *service.Service
	srv *http.Server
	ln  net.Listener
}

// startDaemon binds the listener; Serve starts handling.
func startDaemon(addr string, cfg service.Config, opts ...service.Option) (*daemon, error) {
	svc, err := service.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &daemon{
		svc: svc,
		// A peer gets ten seconds to send its request headers. There is
		// deliberately no WriteTimeout: it would cut the long-polls the
		// handler holds (see the wait parameter in internal/service).
		srv: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ln:  ln,
	}, nil
}

// Addr returns the bound address.
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Serve blocks until Shutdown; a clean shutdown returns nil.
func (d *daemon) Serve() error {
	err := d.srv.Serve(d.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown is the graceful exit: drain the verification workers within
// ctx's budget (readyz flips to 503, polls keep answering so clients
// collect finished reports), cancel whatever outlived the deadline, then
// stop the HTTP server. The service closes first so that every job is
// terminal — a long-poll still held on one gets its answer — before the
// server stops waiting for handlers.
func (d *daemon) Shutdown(ctx context.Context) {
	d.svc.Drain(ctx)
	d.svc.Close()
	d.srv.Shutdown(ctx)
}
