package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	optsched "repro"

	"repro/internal/service"
)

// End-to-end smoke: real listener on a random port, real HTTP client.
func TestDaemonEndToEnd(t *testing.T) {
	d, err := startDaemon("127.0.0.1:0", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &optsched.VerifyClient{BaseURL: "http://" + d.Addr(), PollInterval: 5 * time.Millisecond}

	// A policy the paper refutes must come back REFUTED...
	rep, err := client.Verify(ctx, optsched.VerifyRequest{Policy: "greedy-buggy"})
	if err != nil {
		t.Fatalf("verify greedy-buggy: %v", err)
	}
	if rep.Passed() {
		t.Error("greedy-buggy verified PROVED; the §4.3 livelock should refute it")
	}

	// ...and a proved one PROVED.
	rep, err = client.Verify(ctx, optsched.VerifyRequest{Policy: "delta2"})
	if err != nil {
		t.Fatalf("verify delta2: %v", err)
	}
	if !rep.Passed() {
		t.Errorf("delta2 refuted:\n%s", rep)
	}
	coldJSON, err := optsched.ReportToJSON(rep)
	if err != nil {
		t.Fatal(err)
	}

	// Resubmission is served from the memo, byte-identical.
	before := stats(t, d.Addr())
	warm, err := client.Verify(ctx, optsched.VerifyRequest{Policy: "delta2"})
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := optsched.ReportToJSON(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm report differs from cold:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
	after := stats(t, d.Addr())
	if after.ServedFromCache != before.ServedFromCache+1 {
		t.Errorf("ServedFromCache %d -> %d, want +1", before.ServedFromCache, after.ServedFromCache)
	}
	if after.CacheMisses != before.CacheMisses {
		t.Errorf("warm resubmission missed the cache: misses %d -> %d", before.CacheMisses, after.CacheMisses)
	}

	// The Cluster facade's fourth verification path: WithVerifyService.
	c, err := optsched.New(
		optsched.WithPolicy("delta2"),
		optsched.WithVerifyService("http://"+d.Addr()),
	)
	if err != nil {
		t.Fatal(err)
	}
	viaCluster, err := c.Verify(ctx)
	if err != nil {
		t.Fatalf("Cluster.Verify via daemon: %v", err)
	}
	clusterJSON, err := optsched.ReportToJSON(viaCluster)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, clusterJSON) {
		t.Error("Cluster.Verify via daemon differs from direct client report")
	}
}

// stats fetches the daemon's /v1/stats counter snapshot.
func stats(t *testing.T, addr string) *service.Stats {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return &st
}

func TestRunFlagErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errBuf, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"stray"}, &out, &errBuf, nil); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unexpected arguments") {
		t.Errorf("stray-argument diagnostic missing: %q", errBuf.String())
	}
}

// TestChaosDaemonWarmRestart is the PR's acceptance scenario end-to-end: a
// daemon restarted onto a warm -data-dir recovers its memo and serves a
// previously verified submission as a cache hit — zero obligation
// re-runs, byte-identical report.
func TestChaosDaemonWarmRestart(t *testing.T) {
	dataDir := t.TempDir()
	cfg := service.Config{DataDir: dataDir}
	req := optsched.VerifyRequest{Policy: "delta2", Obligations: []string{"lemma1", "steal-soundness"}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	d1, err := startDaemon("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go d1.Serve()
	rep, err := (&optsched.VerifyClient{BaseURL: "http://" + d1.Addr(), PollInterval: 5 * time.Millisecond}).Verify(ctx, req)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	coldJSON, err := optsched.ReportToJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	d1.Shutdown(shutdownCtx)
	cancelShutdown()

	// Second process lifetime over the same data directory.
	d2, err := startDaemon("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go d2.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d2.Shutdown(ctx)
	}()
	client := &optsched.VerifyClient{BaseURL: "http://" + d2.Addr(), PollInterval: 5 * time.Millisecond}
	st := stats(t, d2.Addr())
	if st.Store == nil || st.Store.RecoveredRecords != 2 {
		t.Fatalf("restarted daemon recovered %+v, want 2 records", st.Store)
	}
	warm, err := client.Verify(ctx, req)
	if err != nil {
		t.Fatalf("warm verify: %v", err)
	}
	warmJSON, err := optsched.ReportToJSON(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("report across restart differs:\npre:\n%s\npost:\n%s", coldJSON, warmJSON)
	}
	st2 := stats(t, d2.Addr())
	if st2.CacheMisses != 0 {
		t.Errorf("warm restart re-ran %d obligations, want 0", st2.CacheMisses)
	}
	if st2.ServedFromCache != 1 {
		t.Errorf("warm submission not served from the recovered memo: %+v", st2)
	}
}

// TestDaemonFaultFlag covers the hidden -faults flag surface: a bad
// spec is a usage error, a good one arms the harness.
func TestDaemonFaultFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-faults", "bogus:nope"}, &out, &errBuf, nil); code != 2 {
		t.Errorf("bad -faults spec: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "faultinject") {
		t.Errorf("bad-spec diagnostic missing: %q", errBuf.String())
	}
}
