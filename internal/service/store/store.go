// Package store is the schedverifyd daemon's durable memo: a
// disk-backed copy of the content-addressed (cache-key -> verify.Result)
// map that survives crashes and restarts, so a warm daemon replays
// byte-identical verdicts with zero obligation re-runs.
//
// Layout under the data directory:
//
//	wal.log        append-only log of committed results. A fixed header
//	               (magic + verifier version) followed by CRC-framed
//	               records; every batch of appends is fsynced before any
//	               record of it counts.
//	snapshot.json  periodic compaction of the full entry map, written to
//	               a temp file and atomically renamed into place.
//
// The batch is the unit of durability and the frame is the unit of
// recovery. AppendBatch encodes a job's results as frames back to back
// and commits them with one write and one fsync — a verification job
// waits on the disk once, not once per obligation — and Append is the
// batch of one, so there is a single write path. On disk a batch leaves
// no trace: the WAL is the same sequence of self-describing frames
// whatever the grouping, and a crash in the middle of a batch recovers
// the frames that made it, as a prefix.
//
// Crash safety is truncation-based: a record is committed iff its full
// frame (length, CRC, payload) is on disk. Recovery loads the snapshot,
// replays WAL frames until the first bad one (short frame, CRC
// mismatch, undecodable payload) and truncates the file there — a torn
// final write costs exactly the uncommitted record, never the store.
// A WAL or snapshot written by a different verifier version is
// discarded wholesale: its content-hash keys can never match current
// submissions, so replaying it would only leak dead entries.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/service/faultinject"
	"repro/internal/verify"
)

// magic opens every WAL file; bump the trailing digits on incompatible
// frame-format changes.
const magic = "SVWAL001"

// maxRecordLen rejects absurd frame lengths during recovery, so a few
// corrupted length bytes cannot make replay attempt a gigabyte read.
const maxRecordLen = 16 << 20

const (
	walName      = "wal.log"
	snapshotName = "snapshot.json"
)

// defaultCompactEvery is the WAL record count that triggers a
// compaction when Options.CompactEvery is zero.
const defaultCompactEvery = 256

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrDisabled is returned by Append after an unrecoverable WAL error
// put the store into memory-only degraded mode.
var ErrDisabled = errors.New("store: WAL disabled after unrecoverable write error")

// Options parameterizes Open.
type Options struct {
	// CompactEvery is the number of WAL appends between snapshot
	// compactions. Zero means 256.
	CompactEvery int
	// Faults optionally injects disk failures at the store's write
	// points (chaos testing). Nil injects nothing.
	Faults *faultinject.Set
}

// Stats is a snapshot of the store's durability counters.
type Stats struct {
	// Entries is the number of live memoized results.
	Entries int `json:"entries"`
	// WALRecords / WALBytes describe the live WAL tail (records since
	// the last compaction; bytes include the header).
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Commits counts the batches committed since Open: one write and one
	// fsync each, however many records the batch carried.
	Commits int64 `json:"commits"`
	// SnapshotEntries is the entry count of the last written or loaded
	// snapshot.
	SnapshotEntries int `json:"snapshot_entries"`
	// LastCompaction is the wall-clock time of the last successful
	// compaction in this process, RFC3339; empty before the first.
	LastCompaction string `json:"last_compaction,omitempty"`
	// RecoveredRecords counts entries restored at Open (snapshot entries
	// plus replayed WAL records).
	RecoveredRecords int `json:"recovered_records"`
	// TruncatedRecords counts discarded records: corrupt tails dropped
	// at Open (one per corruption event — the garbage region's own
	// record count is unknowable) plus failed appends healed by
	// truncating the WAL back to its pre-append offset.
	TruncatedRecords int `json:"truncated_records"`
	// TruncatedBytes is the total byte count removed by those
	// truncations.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// AppendErrors counts Append calls that failed to reach disk (the
	// in-memory cache still served them).
	AppendErrors int64 `json:"append_errors"`
	// CompactErrors counts failed compactions (the WAL keeps growing;
	// durability is unaffected).
	CompactErrors int64 `json:"compact_errors,omitempty"`
	// Flushes counts administrative cache flushes.
	Flushes int64 `json:"flushes,omitempty"`
	// Disabled reports that the WAL hit an unrecoverable error and the
	// store degraded to memory-only mode.
	Disabled bool `json:"disabled,omitempty"`
}

// Entry is one memo entry: the element of an AppendBatch and, through
// its json tags, the WAL/snapshot wire form.
type Entry struct {
	Key    string        `json:"key"`
	Result verify.Result `json:"result"`
}

// snapshotFile is the compacted on-disk form of the whole map.
type snapshotFile struct {
	Magic           string  `json:"magic"`
	VerifierVersion string  `json:"verifier_version"`
	Entries         []Entry `json:"entries"`
}

// Store is the durable memo. All methods are safe for concurrent use.
type Store struct {
	dir          string
	compactEvery int
	faults       *faultinject.Set

	mu       sync.Mutex
	wal      *os.File
	walOff   int64  // committed end of the WAL (frames below are intact)
	buf      []byte // the frames AppendBatch has encoded but not yet written; reused
	entries  map[string]verify.Result
	disabled bool
	stats    Stats
	lastComp time.Time
}

// Open recovers the store in dir (created if missing) and returns it
// together with a copy of the recovered entries. Corruption never makes
// Open fail — bad tails are truncated, incompatible files discarded —
// only real I/O errors (unwritable directory, unreadable files) do.
func Open(dir string, opts Options) (*Store, map[string]verify.Result, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		compactEvery: opts.CompactEvery,
		faults:       opts.Faults,
		entries:      make(map[string]verify.Result),
	}
	s.loadSnapshot()
	if err := s.openWAL(); err != nil {
		return nil, nil, err
	}
	s.stats.RecoveredRecords = s.stats.SnapshotEntries + s.stats.WALRecords
	out := make(map[string]verify.Result, len(s.entries))
	for k, v := range s.entries {
		out[k] = v
	}
	return s, out, nil
}

// loadSnapshot merges the snapshot file into the entry map, ignoring a
// missing, undecodable or version-mismatched snapshot (counted as a
// truncation event — the entries it held are gone).
func (s *Store) loadSnapshot() {
	path := filepath.Join(s.dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		return // no snapshot yet (or unreadable: the WAL is still authoritative)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil ||
		snap.Magic != magic || snap.VerifierVersion != verify.Version {
		s.stats.TruncatedRecords++
		s.stats.TruncatedBytes += int64(len(data))
		return
	}
	for _, rec := range snap.Entries {
		s.entries[rec.Key] = rec.Result
	}
	s.stats.SnapshotEntries = len(snap.Entries)
}

// header renders the WAL file header: magic, then the verifier version
// as a u32-length-prefixed string.
func header() []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(verify.Version)))
	b.Write(lenBuf[:])
	b.WriteString(verify.Version)
	return b.Bytes()
}

// openWAL opens (or creates) the WAL, replays its committed frames into
// the entry map, and truncates at the first bad one.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.wal = f
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	hdr := header()
	if !bytes.HasPrefix(data, hdr) {
		// Empty file: initialize. Anything else (corrupt header or a
		// different verifier version) is undecodable or unreachable by
		// current keys — discard it wholesale.
		if len(data) > 0 {
			s.stats.TruncatedRecords++
			s.stats.TruncatedBytes += int64(len(data))
		}
		if err := s.resetWAL(); err != nil {
			f.Close()
			return err
		}
		return nil
	}
	off := int64(len(hdr))
	for {
		key, res, next, ok := decodeFrame(data, off)
		if !ok {
			break
		}
		s.entries[key] = res
		s.stats.WALRecords++
		off = next
	}
	if off < int64(len(data)) {
		// Torn or corrupt tail: keep the committed prefix only.
		s.stats.TruncatedRecords++
		s.stats.TruncatedBytes += int64(len(data)) - off
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating corrupt WAL tail: %w", err)
		}
	}
	s.walOff = off
	s.stats.WALBytes = off
	return nil
}

// resetWAL rewrites the WAL as just a header.
func (s *Store) resetWAL() error {
	hdr := header()
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walOff = int64(len(hdr))
	s.stats.WALBytes = s.walOff
	s.stats.WALRecords = 0
	return nil
}

// decodeFrame decodes one frame at off; ok is false at a clean EOF or
// the first sign of corruption (the caller truncates there either way).
func decodeFrame(data []byte, off int64) (key string, res verify.Result, next int64, ok bool) {
	if off+8 > int64(len(data)) {
		return "", verify.Result{}, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxRecordLen || off+8+n > int64(len(data)) {
		return "", verify.Result{}, 0, false
	}
	payload := data[off+8 : off+8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return "", verify.Result{}, 0, false
	}
	var rec Entry
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
		return "", verify.Result{}, 0, false
	}
	return rec.Key, rec.Result, off + 8 + n, true
}

// appendFrame appends e's frame — payload length, payload CRC, payload —
// to dst.
func appendFrame(dst []byte, e Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...), nil
}

// Append commits one memo entry: the batch of one.
func (s *Store) Append(key string, res verify.Result) error {
	return s.AppendBatch([]Entry{{Key: key, Result: res}})
}

// AppendBatch commits the entries in order: frames encoded back to back,
// written with one WriteAt, fsynced once, then counted — none of them is
// committed before the fsync returns. Failure is per frame: a frame whose
// write fails or tears is healed by truncating the WAL back to the last
// committed offset — the entry is lost from disk (the caller's in-memory
// cache still serves it) but the WAL stays recoverable — and the frames
// after it are still attempted. If even the healing truncate fails, the
// store degrades to memory-only mode (ErrDisabled from then on). The
// returned error is the first frame's that failed; Stats.AppendErrors
// counts them all.
func (s *Store) AppendBatch(batch []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// s.buf holds the frames of batch[start:i], the run encoded since the
	// last commit. A run ends where a frame fails (so a failed frame costs
	// only itself) and where the WAL reaches the compaction threshold (so
	// the snapshot and the WAL after it are the ones per-entry appends
	// leave).
	s.buf = s.buf[:0]
	start := 0
	var first error
	fail := func(n int, err error) {
		s.stats.AppendErrors += int64(n)
		if first == nil {
			first = err
		}
	}
	flush := func(end int) {
		if err := s.commit(batch[start:end]); err != nil {
			fail(end-start, fmt.Errorf("store: appending record: %w", err))
		}
		start = end
	}
	// drop fails entry i alone, after flushing the run before it.
	drop := func(i int, err error) {
		flush(i)
		fail(1, err)
		start = i + 1
	}
	for i, e := range batch {
		if s.disabled {
			drop(i, ErrDisabled)
			continue
		}
		mark := len(s.buf)
		var err error
		if s.buf, err = appendFrame(s.buf, e); err != nil {
			s.buf = s.buf[:mark]
			drop(i, fmt.Errorf("store: encoding record: %w", err))
			continue
		}
		if d := s.faults.Check(faultinject.OpWALAppend, ""); d.Err != nil {
			// Injected disk fault on this frame: it fails (or tears) alone,
			// at the offset it would have had.
			frame := s.buf[mark:]
			s.buf = s.buf[:mark]
			drop(i, fmt.Errorf("store: appending record: %w", d.Err))
			if !s.disabled {
				if n := min(d.TornBytes, len(frame)); n > 0 {
					s.wal.WriteAt(frame[:n], s.walOff)
					s.wal.Sync()
				}
				s.heal(1)
			}
			continue
		}
		if s.stats.WALRecords+(i+1-start) >= s.compactEvery {
			flush(i + 1)
			if s.stats.WALRecords >= s.compactEvery {
				if err := s.compactLocked(); err != nil {
					s.stats.CompactErrors++
				}
			}
		}
	}
	flush(len(batch))
	return first
}

// commit writes the frames in s.buf — run's, back to back — at the
// committed offset, fsyncs once and only then counts them; a failed
// write heals the WAL and commits none of them. It empties s.buf.
func (s *Store) commit(run []Entry) error {
	frames := s.buf
	s.buf = s.buf[:0]
	if len(run) == 0 {
		return nil
	}
	_, err := s.wal.WriteAt(frames, s.walOff)
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.heal(len(run))
		return err
	}
	s.walOff += int64(len(frames))
	s.stats.WALBytes = s.walOff
	s.stats.WALRecords += len(run)
	s.stats.Commits++
	for _, e := range run {
		s.entries[e.Key] = e.Result
	}
	return nil
}

// heal truncates the WAL back to the last committed offset after n
// frames failed to reach it; an unhealable WAL disables the write path.
func (s *Store) heal(n int) {
	s.stats.TruncatedRecords += n
	if d := s.faults.Check(faultinject.OpWALTruncate, ""); d.Err != nil {
		s.disabled = true
		s.stats.Disabled = true
		return
	}
	if err := s.wal.Truncate(s.walOff); err != nil {
		s.disabled = true
		s.stats.Disabled = true
		return
	}
	s.wal.Sync()
}

// Compact snapshots the full entry map and truncates the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	snap := snapshotFile{
		Magic:           magic,
		VerifierVersion: verify.Version,
		Entries:         make([]Entry, 0, len(s.entries)),
	}
	//schedlint:allow determinism the collected entries are sorted by key on the next line, so iteration order never reaches the snapshot bytes
	for k, v := range s.entries {
		snap.Entries = append(snap.Entries, Entry{Key: k, Result: v})
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Key < snap.Entries[j].Key })
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	final := filepath.Join(s.dir, snapshotName)
	if d := s.faults.Check(faultinject.OpSnapshotWrite, ""); d.Err != nil {
		return fmt.Errorf("store: writing snapshot: %w", d.Err)
	}
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if d := s.faults.Check(faultinject.OpSnapshotRename, ""); d.Err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: renaming snapshot: %w", d.Err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: renaming snapshot: %w", err)
	}
	syncDir(s.dir)
	// The snapshot now holds everything; a crash between the rename and
	// this truncate only replays WAL records that overwrite identical
	// snapshot entries.
	if !s.disabled {
		if err := s.resetWAL(); err != nil {
			s.stats.CompactErrors++
		}
	}
	s.stats.SnapshotEntries = len(snap.Entries)
	s.lastComp = time.Now() //schedlint:allow determinism compaction timestamp is operational telemetry, never part of a cached verdict
	s.stats.LastCompaction = s.lastComp.UTC().Format(time.RFC3339)
	return nil
}

// Flush drops every entry, on disk and in the store's own map: the WAL
// resets to a bare header and the snapshot is removed. The admin cache
// flush (DELETE /v1/cache) lands here.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]verify.Result)
	s.stats.Flushes++
	s.stats.SnapshotEntries = 0
	if err := os.Remove(filepath.Join(s.dir, snapshotName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing snapshot: %w", err)
	}
	if s.disabled {
		return nil
	}
	return s.resetWAL()
}

// Close syncs and closes the WAL. The store stays fully recoverable
// whether or not Close ever runs — that is the point.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	s.wal.Sync()
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Stats returns a snapshot of the durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// writeFileSync writes data and fsyncs before closing, so a rename
// never publishes a file whose bytes are still in flight.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives a power
// cut; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
