package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/service/faultinject"
	"repro/internal/verify"
)

// sampleResults exercises every exported Result field the wire format
// must preserve, including witness text with framing-hostile bytes.
func sampleResults() []struct {
	key string
	res verify.Result
} {
	return []struct {
		key string
		res verify.Result
	}{
		{"k-pass", verify.Result{ID: verify.ObLemma1, Passed: true, StatesChecked: 1234}},
		{"k-refuted", verify.Result{
			ID: verify.ObWorkConservConc, Passed: false,
			Witness:       "state [2 0 0] schedule (1<-0, 2<-0) \"quoted\" \x00-free ✓",
			StatesChecked: 99, SchedulesChecked: 777,
		}},
		{"k-bound", verify.Result{ID: verify.ObWorkConservSeq, Passed: true, StatesChecked: 5, Bound: 7}},
		{"k-sched", verify.Result{ID: verify.ObReactivity, Passed: true, StatesChecked: 42, SchedulesChecked: 13}},
	}
}

// sampleBatch is sampleResults as the batch AppendBatch takes.
func sampleBatch() []Entry {
	var batch []Entry
	for _, rec := range sampleResults() {
		batch = append(batch, Entry{Key: rec.key, Result: rec.res})
	}
	return batch
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, map[string]verify.Result) {
	t.Helper()
	s, entries, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, entries
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, entries := mustOpen(t, dir, Options{})
	if len(entries) != 0 {
		t.Fatalf("fresh store recovered %d entries", len(entries))
	}
	want := map[string]verify.Result{}
	for _, rec := range sampleResults() {
		if err := s.Append(rec.key, rec.res); err != nil {
			t.Fatalf("Append(%s): %v", rec.key, err)
		}
		want[rec.key] = rec.res
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered entries differ:\n got %+v\nwant %+v", got, want)
	}
	st := s2.Stats()
	if st.RecoveredRecords != len(want) || st.WALRecords != len(want) {
		t.Errorf("stats after reopen: %+v, want %d recovered WAL records", st, len(want))
	}
	if st.TruncatedRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("clean reopen counted truncations: %+v", st)
	}
}

// The crash-recovery property at the heart of the PR: for EVERY prefix
// truncation of a valid WAL — every possible torn final write or
// kill -9 mid-append — the store reopens cleanly and serves exactly the
// fully-committed records, byte-identical, never a partial one.
//
// The WAL under test is written as ONE batch, so every cut inside it is a
// kill -9 in the middle of a batch: what comes back is the prefix of
// frames that made it — the frame, not the batch, is the unit of
// recovery.
func TestCrashRecoveryPrefixProperty(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	// offsets[i] is the WAL length after i whole frames.
	offsets := []int64{s.Stats().WALBytes}
	var keys []string
	var results []verify.Result
	for _, e := range sampleBatch() {
		frame, err := appendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, offsets[len(offsets)-1]+int64(len(frame)))
		keys = append(keys, e.Key)
		results = append(results, e.Result)
	}
	if err := s.AppendBatch(sampleBatch()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Commits != 1 || st.WALRecords != len(keys) {
		t.Fatalf("one batch of %d: %+v, want 1 commit", len(keys), st)
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != offsets[len(offsets)-1] {
		t.Fatalf("WAL is %d bytes, committed offset says %d", len(wal), offsets[len(offsets)-1])
	}

	for cut := 0; cut <= len(wal); cut++ {
		// How many records are fully committed within the first `cut` bytes?
		committed := 0
		for committed+1 < len(offsets) && offsets[committed+1] <= int64(cut) {
			committed++
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, got, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		if len(got) != committed {
			t.Fatalf("cut=%d: recovered %d entries, want %d", cut, len(got), committed)
		}
		for i := 0; i < committed; i++ {
			if res, ok := got[keys[i]]; !ok || !reflect.DeepEqual(res, results[i]) {
				t.Fatalf("cut=%d: entry %s differs: %+v vs %+v", cut, keys[i], res, results[i])
			}
		}
		// The recovered store must accept new appends and survive a
		// second reopen with the same committed view plus the new record.
		extra := verify.Result{ID: verify.ObStealSoundness, Passed: true, StatesChecked: cut}
		if err := s2.Append("k-extra", extra); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, again, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		if len(again) != committed+1 || !reflect.DeepEqual(again["k-extra"], extra) {
			t.Fatalf("cut=%d: after recovery+append, reopen sees %d entries", cut, len(again))
		}
		s3.Close()
	}
}

func TestCompactionSnapshotsAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 3})
	for _, rec := range sampleResults()[:3] {
		if err := s.Append(rec.key, rec.res); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALRecords != 0 || st.SnapshotEntries != 3 || st.LastCompaction == "" {
		t.Fatalf("after threshold: %+v, want compacted snapshot of 3 and empty WAL", st)
	}
	// One more append lands in the fresh WAL tail.
	last := sampleResults()[3]
	if err := s.Append(last.key, last.res); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, got := mustOpen(t, dir, Options{CompactEvery: 3})
	defer s2.Close()
	if len(got) != 4 {
		t.Fatalf("recovered %d entries from snapshot+WAL, want 4", len(got))
	}
	st2 := s2.Stats()
	if st2.SnapshotEntries != 3 || st2.WALRecords != 1 || st2.RecoveredRecords != 4 {
		t.Errorf("reopen stats %+v, want 3 snapshot + 1 WAL", st2)
	}
}

// A compaction that fails at either step costs nothing committed: the
// batch that triggered it stands, the failure is counted, no temporary
// snapshot is left behind, a reopen recovers every entry, and the next
// compaction succeeds.
func TestFailedCompactionKeepsTheBatch(t *testing.T) {
	for _, op := range []faultinject.Op{faultinject.OpSnapshotWrite, faultinject.OpSnapshotRename} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			faults := faultinject.New(faultinject.Rule{Op: op, Kind: faultinject.KindFail, On: 1})
			opts := Options{CompactEvery: 3, Faults: faults}
			noTemp := func() {
				t.Helper()
				if _, err := os.Stat(filepath.Join(dir, snapshotName+".tmp")); !os.IsNotExist(err) {
					t.Errorf("a temporary snapshot remains (stat: %v)", err)
				}
			}
			batch := sampleBatch()
			s, _ := mustOpen(t, dir, opts)
			if err := s.AppendBatch(batch[:3]); err != nil {
				t.Fatalf("the batch failed with its compaction: %v", err)
			}
			if n := faults.Fired()[string(op)+":fail"]; n != 1 {
				t.Fatalf("the %s fault fired %d times, want 1", op, n)
			}
			if st := s.Stats(); st.WALRecords != 3 || st.Commits != 1 || st.AppendErrors != 0 ||
				st.CompactErrors != 1 || st.SnapshotEntries != 0 || st.LastCompaction != "" {
				t.Errorf("stats %+v, want the batch committed to the WAL and one failed compaction", st)
			}
			noTemp()
			s.Close()

			s, got := mustOpen(t, dir, opts)
			if len(got) != 3 {
				t.Errorf("reopen recovered %d entries, want 3", len(got))
			}
			if err := s.Append(batch[3].Key, batch[3].Result); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.WALRecords != 0 || st.SnapshotEntries != 4 || st.CompactErrors != 0 {
				t.Errorf("stats %+v, want the next compaction to snapshot all 4 entries", st)
			}
			noTemp()
			s.Close()

			s, got = mustOpen(t, dir, Options{})
			defer s.Close()
			want := make(map[string]verify.Result)
			for _, e := range batch {
				want[e.Key] = e.Result
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recovered %+v, want every committed entry %+v", got, want)
			}
		})
	}
}

func TestVerifierVersionMismatchDiscardsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append("k", verify.Result{ID: verify.ObLemma1, Passed: true}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Flip a byte inside the header's version string: the WAL now claims
	// a different verifier, whose keys can never match current ones.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 0 {
		t.Fatalf("version-mismatched WAL replayed %d entries", len(got))
	}
	st := s2.Stats()
	if st.TruncatedRecords != 1 || st.TruncatedBytes != int64(len(data)) {
		t.Errorf("discard not accounted: %+v", st)
	}
	// The WAL must have been reinitialized with the current version.
	if err := s2.Append("k", verify.Result{ID: verify.ObLemma1, Passed: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 2})
	for _, rec := range sampleResults()[:2] {
		s.Append(rec.key, rec.res)
	}
	s.Append(sampleResults()[2].key, sampleResults()[2].res) // WAL tail
	s.Close()
	snap := filepath.Join(dir, snapshotName)
	if err := os.WriteFile(snap, []byte(`{"magic":"svsnap","entr`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	// The snapshot's 2 entries are gone (corrupt), the WAL-tail entry
	// survives; recovery is clean either way.
	if len(got) != 1 {
		t.Fatalf("recovered %d entries, want 1 (WAL tail only)", len(got))
	}
	if s2.Stats().TruncatedRecords == 0 {
		t.Error("snapshot corruption not accounted as truncation")
	}
}

func TestFlushDropsDiskState(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 2})
	for _, rec := range sampleResults() {
		s.Append(rec.key, rec.res)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 || st.WALRecords != 0 || st.Flushes != 1 {
		t.Errorf("post-flush stats %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Error("snapshot survived the flush")
	}
	s.Close()
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 0 {
		t.Fatalf("flushed store recovered %d entries", len(got))
	}
}

func TestTornAppendHealsWAL(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Kind: faultinject.KindTorn, Bytes: 5, On: 2,
	})
	s, _ := mustOpen(t, dir, Options{Faults: faults})
	recs := sampleResults()
	if err := s.Append(recs[0].key, recs[0].res); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[1].key, recs[1].res); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := s.Append(recs[2].key, recs[2].res); err != nil {
		t.Fatalf("append after healed tear: %v", err)
	}
	st := s.Stats()
	if st.AppendErrors != 1 || st.TruncatedRecords != 1 {
		t.Errorf("tear not accounted: %+v", st)
	}
	s.Close()

	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d entries, want 2 (torn record lost, neighbors intact)", len(got))
	}
	if !reflect.DeepEqual(got[recs[0].key], recs[0].res) || !reflect.DeepEqual(got[recs[2].key], recs[2].res) {
		t.Error("surviving entries corrupted by the healed tear")
	}
	if s2.Stats().TruncatedRecords != 0 {
		t.Error("healed WAL still has a corrupt tail")
	}
}

func TestUnhealableWALDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Kind: faultinject.KindFail, On: 1},
		faultinject.Rule{Op: faultinject.OpWALTruncate, Kind: faultinject.KindFail, On: 1},
	)
	s, _ := mustOpen(t, dir, Options{Faults: faults})
	defer s.Close()
	if err := s.Append("a", verify.Result{ID: verify.ObLemma1}); err == nil {
		t.Fatal("injected append failure reported success")
	}
	if err := s.Append("b", verify.Result{ID: verify.ObLemma1}); !errors.Is(err, ErrDisabled) {
		t.Fatalf("store not disabled after unhealable WAL: %v", err)
	}
	if st := s.Stats(); !st.Disabled || st.AppendErrors != 2 {
		t.Errorf("degraded mode not reported: %+v", st)
	}
}

func TestFrameCRCGuardsPayload(t *testing.T) {
	frame, err := appendFrame(nil, Entry{Key: "k", Result: verify.Result{ID: verify.ObLemma1, Passed: true, StatesChecked: 9}})
	if err != nil {
		t.Fatal(err)
	}
	data := append(header(), frame...)
	if _, _, _, ok := decodeFrame(data, int64(len(header()))); !ok {
		t.Fatal("pristine frame rejected")
	}
	for i := 8; i < len(frame); i++ { // corrupt each payload byte in turn
		mut := append(header(), bytes.Clone(frame)...)
		mut[len(header())+i] ^= 0x01
		if _, _, _, ok := decodeFrame(mut, int64(len(header()))); ok {
			t.Fatalf("payload corruption at byte %d went undetected", i)
		}
	}
}

// A batch is invisible on disk: committing entries one Append at a time
// and committing them as one AppendBatch leave the same WAL bytes, the
// same snapshot, the same counters (but for the number of commits) and
// the same recovered entries — on the plain path, across a compaction
// threshold in the middle of the batch, and when an injected fault fails
// or tears one frame of it (the frame before it persists, it alone is
// dropped and healed, the frames after it persist).
func TestBatchLeavesTheBytesAppendsLeave(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opts        Options
		faults      string
		wantRecords int
		wantErrors  int64
		wantCommits int64
		size        int // entries in the batch
		lost        int // index of the entry the fault costs
	}{
		{name: "plain", size: 4, wantRecords: 4, wantCommits: 1},
		{name: "batch of one", size: 1, wantRecords: 1, wantCommits: 1},
		{name: "compaction mid-batch", size: 4, opts: Options{CompactEvery: 3}, wantRecords: 1, wantCommits: 2},
		{name: "torn frame 2", size: 4, faults: "wal-append:torn=5@2", lost: 1, wantRecords: 3, wantErrors: 1, wantCommits: 2},
		{name: "failed frame 1", size: 4, faults: "wal-append:fail@1", lost: 0, wantRecords: 3, wantErrors: 1, wantCommits: 1},
		{name: "failed last frame", size: 4, faults: "wal-append:fail@4", lost: 3, wantRecords: 3, wantErrors: 1, wantCommits: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := sampleBatch()[:tc.size]
			type outcome struct {
				wal, snap []byte
				stats     Stats
				entries   map[string]verify.Result
			}
			run := func(write func(*Store) error) outcome {
				t.Helper()
				dir := t.TempDir()
				opts := tc.opts
				var err error
				if opts.Faults, err = faultinject.Parse(tc.faults); err != nil {
					t.Fatal(err)
				}
				s, _ := mustOpen(t, dir, opts)
				if err := write(s); (err != nil) != (tc.wantErrors > 0) {
					t.Fatalf("write returned %v with %d failures expected", err, tc.wantErrors)
				}
				var out outcome
				out.stats = s.Stats()
				s.Close()
				if out.wal, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
					t.Fatal(err)
				}
				out.snap, _ = os.ReadFile(filepath.Join(dir, snapshotName)) // absent without a compaction
				s2, entries := mustOpen(t, dir, Options{})
				defer s2.Close()
				if st := s2.Stats(); st.TruncatedRecords != 0 {
					t.Errorf("reopen found a corrupt tail: %+v", st)
				}
				out.entries = entries
				return out
			}
			single := run(func(s *Store) error {
				var first error
				for _, e := range batch {
					if err := s.Append(e.Key, e.Result); err != nil && first == nil {
						first = err
					}
				}
				return first
			})
			batched := run(func(s *Store) error { return s.AppendBatch(batch) })

			if !bytes.Equal(single.wal, batched.wal) {
				t.Errorf("WAL bytes differ: %d bytes by Append, %d by AppendBatch", len(single.wal), len(batched.wal))
			}
			if !bytes.Equal(single.snap, batched.snap) {
				t.Errorf("snapshot bytes differ:\n%s\nvs\n%s", single.snap, batched.snap)
			}
			if !reflect.DeepEqual(single.entries, batched.entries) {
				t.Errorf("recovered entries differ:\n%+v\nvs\n%+v", single.entries, batched.entries)
			}
			st := batched.stats
			if st.WALRecords != tc.wantRecords || st.AppendErrors != tc.wantErrors ||
				st.TruncatedRecords != int(tc.wantErrors) || st.Commits != tc.wantCommits || st.Disabled {
				t.Errorf("batch stats %+v, want %d WAL records, %d append errors, %d commits",
					st, tc.wantRecords, tc.wantErrors, tc.wantCommits)
			}
			// Everything but the number of commits (and the compaction
			// wall-clock stamp) is what the per-entry path counted.
			single.stats.Commits, single.stats.LastCompaction = 0, ""
			st.Commits, st.LastCompaction = 0, ""
			if single.stats != st {
				t.Errorf("counters differ:\n by Append      %+v\n by AppendBatch %+v", single.stats, st)
			}
			if tc.faults != "" {
				lost := batch[tc.lost].Key
				if _, ok := batched.entries[lost]; ok || len(batched.entries) != len(batch)-1 {
					t.Errorf("recovered %d entries (lost one present: %v), want every frame but %s", len(batched.entries), ok, lost)
				}
			}
		})
	}
}

// An unhealable WAL in the middle of a batch: the frames before the
// failure are committed, the failed frame and every later one count as
// append errors, and the store says it is disabled.
func TestBatchDisabledMidwayFailsTheRest(t *testing.T) {
	faults := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Kind: faultinject.KindFail, On: 2},
		faultinject.Rule{Op: faultinject.OpWALTruncate, Kind: faultinject.KindFail, On: 1},
	)
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Faults: faults})
	if err := s.AppendBatch(sampleBatch()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("AppendBatch returned %v, want the first frame's failure", err)
	}
	if st := s.Stats(); !st.Disabled || st.WALRecords != 1 || st.AppendErrors != 3 {
		t.Errorf("stats %+v, want 1 committed record, 3 append errors, disabled", st)
	}
	s.Close()
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := got["k-pass"]; !ok || len(got) != 1 {
		t.Errorf("recovered %v, want the one frame committed before the WAL was disabled", got)
	}
}
