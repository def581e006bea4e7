// Package store is the schedverifyd daemon's durable memo: the
// content-addressed (cache-key -> verify.Result) map written to disk so
// that it survives crashes and restarts, and a warm daemon replays
// byte-identical verdicts with zero obligation re-runs.
//
// The data directory holds one file, wal.log: a fixed header (magic +
// verifier version) followed by CRC-framed records, each one committed
// entry. It is the only on-disk format and decodeFrame its only decoder.
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
// frame (length, CRC, payload) is on disk. Recovery replays frames until
// the first bad one (short frame, CRC mismatch, undecodable payload) and
// truncates the file there — a torn final write costs exactly the
// uncommitted record, never the store. A WAL written by a different
// verifier version is discarded wholesale: its content-hash keys can
// never match current submissions, so replaying it would only leak dead
// entries.
//
// Compaction rewrites the WAL: the committed frames are replayed, the
// last frame of each key is written in key order to wal.log.tmp, which
// is fsynced and renamed over wal.log. A crash before the rename leaves
// the old WAL authoritative (Open never reads wal.log.tmp, and the next
// compaction overwrites it); after it, the new one is.
// Open reads nothing else either: the JSON snapshot an older daemon
// compacted into beside its WAL is ignored (the entries it held are
// re-verified on their first miss) and may be deleted.
//
// The store keeps no copy of the memo: Open hands the replayed map to
// its caller, and a compaction reads the entries back from the file.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// walName is the store's one file; a compaction writes its successor as
// walName+".tmp".
const walName = "wal.log"

// defaultCompactEvery is the WAL record count that triggers a
// compaction when Options.CompactEvery is zero.
const defaultCompactEvery = 256

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrDisabled is returned by Append after an unrecoverable WAL error
// put the store into memory-only degraded mode.
var ErrDisabled = errors.New("store: WAL disabled after unrecoverable write error")

// Options parameterizes Open.
type Options struct {
	// CompactEvery is the number of frames appended to the WAL, counting
	// from its last rewrite or reset (recovered frames included), that
	// triggers a compaction. Zero means 256.
	CompactEvery int
	// Faults optionally injects disk failures at the store's write
	// points (chaos testing). Nil injects nothing.
	Faults *faultinject.Set
}

// Stats is a snapshot of the store's durability counters.
type Stats struct {
	// WALRecords / WALBytes describe the WAL file: the frames in it
	// (one per entry after a compaction) and its length, header
	// included.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Commits counts the batches committed since Open: one write and one
	// fsync each, however many records the batch carried.
	Commits int64 `json:"commits"`
	// LastCompaction is the wall-clock time of the last successful
	// compaction in this process, RFC3339; empty before the first.
	LastCompaction string `json:"last_compaction,omitempty"`
	// RecoveredRecords counts the WAL frames replayed at Open.
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
	// CompactErrors counts failed compactions (the old WAL stays in
	// place and keeps growing; durability is unaffected).
	CompactErrors int64 `json:"compact_errors,omitempty"`
	// Disabled reports that the WAL hit an unrecoverable error and the
	// store degraded to memory-only mode.
	Disabled bool `json:"disabled,omitempty"`
}

// Entry is one memo entry: the element of an AppendBatch and, through
// its json tags, the payload of a WAL frame.
type Entry struct {
	Key    string        `json:"key"`
	Result verify.Result `json:"result"`
}

// Store is the durable memo. All methods are safe for concurrent use.
type Store struct {
	dir          string
	compactEvery int
	faults       *faultinject.Set

	mu           sync.Mutex
	wal          *os.File
	walOff       int64  // committed end of the WAL (frames below are intact)
	buf          []byte // the frames AppendBatch has encoded but not yet written; reused
	sinceRewrite int    // frames committed since the WAL was last rewritten or reset, recovered ones included
	stats        Stats
}

// Open recovers the store in dir (created if missing) and returns it
// together with the recovered entries, a map the caller owns from then
// on. Corruption never makes Open fail — a bad tail is truncated, an
// incompatible file discarded — only real I/O errors (unwritable
// directory, unreadable WAL) do.
func Open(dir string, opts Options) (*Store, map[string]verify.Result, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, compactEvery: opts.CompactEvery, faults: opts.Faults}
	entries, err := s.openWAL()
	if err != nil {
		return nil, nil, err
	}
	s.stats.RecoveredRecords = s.stats.WALRecords
	return s, entries, nil
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

// openWAL opens (or creates) the WAL, replays its committed frames and
// truncates at the first bad one.
func (s *Store) openWAL() (map[string]verify.Result, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = f
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	if !bytes.HasPrefix(data, header()) {
		// Empty file: initialize. Anything else (corrupt header or a
		// different verifier version) is undecodable or unreachable by
		// current keys — discard it wholesale.
		if len(data) > 0 {
			s.stats.TruncatedRecords++
			s.stats.TruncatedBytes += int64(len(data))
		}
		if err := s.resetWAL(); err != nil {
			f.Close()
			return nil, err
		}
		return make(map[string]verify.Result), nil
	}
	entries, frames, off := replay(data)
	if off < int64(len(data)) {
		// Torn or corrupt tail: keep the committed prefix only.
		s.stats.TruncatedRecords++
		s.stats.TruncatedBytes += int64(len(data)) - off
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating corrupt WAL tail: %w", err)
		}
	}
	s.walOff = off
	s.sinceRewrite = frames
	s.stats.WALBytes = off
	s.stats.WALRecords = frames
	return entries, nil
}

// replay decodes the frames after data's header up to the first bad one
// — a later frame of a key overwrites an earlier one — and returns the
// entries, the number of frames and the offset where the intact prefix
// ends.
func replay(data []byte) (map[string]verify.Result, int, int64) {
	entries := make(map[string]verify.Result)
	frames, off := 0, int64(len(header()))
	for {
		key, res, next, ok := decodeFrame(data, off)
		if !ok {
			return entries, frames, off
		}
		entries[key] = res
		frames++
		off = next
	}
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
	s.sinceRewrite = 0
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
	// the rewritten WAL and the frames after it are the ones per-entry
	// appends leave).
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
		if err := s.commit(end - start); err != nil {
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
		if s.stats.Disabled {
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
			if !s.stats.Disabled {
				if n := min(d.TornBytes, len(frame)); n > 0 {
					s.wal.WriteAt(frame[:n], s.walOff)
					s.wal.Sync()
				}
				s.heal(1)
			}
			continue
		}
		if s.sinceRewrite+(i+1-start) >= s.compactEvery {
			flush(i + 1)
			if s.sinceRewrite >= s.compactEvery {
				if err := s.compactLocked(); err != nil {
					s.stats.CompactErrors++
				}
			}
		}
	}
	flush(len(batch))
	return first
}

// commit writes the frames in s.buf — n of them, back to back — at the
// committed offset, fsyncs once and only then counts them; a failed
// write heals the WAL and commits none of them. It empties s.buf.
func (s *Store) commit(n int) error {
	frames := s.buf
	s.buf = s.buf[:0]
	if n == 0 {
		return nil
	}
	_, err := s.wal.WriteAt(frames, s.walOff)
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.heal(n)
		return err
	}
	s.walOff += int64(len(frames))
	s.sinceRewrite += n
	s.stats.WALBytes = s.walOff
	s.stats.WALRecords += n
	s.stats.Commits++
	return nil
}

// heal truncates the WAL back to the last committed offset after n
// frames failed to reach it; an unhealable WAL disables the write path.
func (s *Store) heal(n int) {
	s.stats.TruncatedRecords += n
	if d := s.faults.Check(faultinject.OpWALTruncate, ""); d.Err != nil || s.wal.Truncate(s.walOff) != nil {
		s.stats.Disabled = true
		return
	}
	s.wal.Sync()
}

// Compact rewrites the WAL as the last committed frame of each key, in
// key order.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked replays the committed frames, writes the header and the
// surviving entries to wal.log.tmp, fsyncs it, renames it over wal.log
// and appends to the new file from then on. Until the rename the old WAL
// is the store; a failure at any step leaves it in place and removes the
// temporary file.
func (s *Store) compactLocked() error {
	if s.stats.Disabled {
		return ErrDisabled
	}
	data := make([]byte, s.walOff)
	if _, err := s.wal.ReadAt(data, 0); err != nil {
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	entries, _, _ := replay(data)
	out := header()
	for _, key := range slices.Sorted(maps.Keys(entries)) {
		var err error
		if out, err = appendFrame(out, Entry{Key: key, Result: entries[key]}); err != nil {
			return fmt.Errorf("store: encoding record: %w", err)
		}
	}
	if d := s.faults.Check(faultinject.OpCompactWrite, ""); d.Err != nil {
		return fmt.Errorf("store: writing compacted WAL: %w", d.Err)
	}
	path := filepath.Join(s.dir, walName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing compacted WAL: %w", err)
	}
	// The fsync comes before the rename, so the rename never publishes
	// bytes still in flight.
	if _, err = f.Write(out); err == nil {
		err = f.Sync()
	}
	if err == nil {
		if d := s.faults.Check(faultinject.OpCompactRename, ""); d.Err != nil {
			err = d.Err
		} else {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compacting WAL: %w", err)
	}
	syncDir(s.dir)
	s.wal.Close()
	s.wal = f
	s.walOff = int64(len(out))
	s.sinceRewrite = 0
	s.stats.WALBytes = s.walOff
	s.stats.WALRecords = len(entries)
	s.stats.LastCompaction = time.Now().UTC().Format(time.RFC3339) //schedlint:allow determinism compaction timestamp is operational telemetry, never part of a cached verdict
	return nil
}

// Flush drops every entry on disk: the WAL resets to a bare header. The
// admin cache flush (DELETE /v1/cache) lands here.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.Disabled {
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
	return s.stats
}

// syncDir fsyncs a directory so a just-renamed file survives a power
// cut; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
