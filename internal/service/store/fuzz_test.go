package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/verify"
)

// recoverable is the reference reading of the bytes after a WAL header:
// the frames from its start whose length is in range and fully present,
// whose CRC matches and whose payload is an entry with a key, up to the
// first that is not; a later frame overwrites an earlier one's key. It
// returns the entries, the number of frames and the prefix's length.
func recoverable(tail []byte) (map[string]verify.Result, int, int) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	entries := map[string]verify.Result{}
	frames, off := 0, 0
	for len(tail)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(tail[off:]))
		if n == 0 || n > maxRecordLen || n > len(tail)-off-8 {
			break
		}
		payload := tail[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(tail[off+4:]) {
			break
		}
		var e Entry
		if json.Unmarshal(payload, &e) != nil || e.Key == "" {
			break
		}
		entries[e.Key] = e.Result
		frames++
		off += 8 + n
	}
	return entries, frames, off
}

// FuzzWALRecovery writes a valid header followed by arbitrary bytes as
// wal.log and opens the store on it, twice. Open must neither panic nor
// fail, must recover exactly the longest prefix of intact frames and
// truncate the file to it, and the second Open must find that prefix
// again, unchanged.
func FuzzWALRecovery(f *testing.F) {
	seedDir := f.TempDir()
	s, _, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.AppendBatch(sampleBatch()); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(seedDir, walName))
	if err != nil {
		f.Fatal(err)
	}
	batch := wal[len(header()):]
	for cut := 0; cut <= len(batch); cut++ {
		f.Add(batch[:cut])
	}
	flipped := bytes.Clone(batch)
	flipped[4] ^= 0xff // the first frame's CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		hdr := header()
		if err := os.WriteFile(path, append(bytes.Clone(hdr), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, frames, end := recoverable(tail)
		wantDisk := append(hdr, tail[:end]...)
		for _, pass := range []string{"first", "second"} {
			s, got, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("%s Open: %v", pass, err)
			}
			records := s.Stats().WALRecords
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s Open recovered %v, want %v", pass, got, want)
			}
			if records != frames {
				t.Errorf("%s Open replayed %d frames, want %d", pass, records, frames)
			}
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(disk, wantDisk) {
				t.Fatalf("%s Open left a %d-byte wal.log, want the %d-byte header and intact prefix", pass, len(disk), len(wantDisk))
			}
		}
	})
}
