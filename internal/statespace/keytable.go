package statespace

import (
	"bytes"

	"repro/internal/sched"
)

// KeyTable maps byte keys — canonical machine keys (sched.Machine.AppendKey)
// in the verifier — to int32 values without allocating per key. Every
// key's bytes are copied into one arena; an open-addressing index of
// entry numbers sits beside it, and each entry keeps its key's hash,
// where its bytes lie in the arena, and its value. An insert allocates
// only when the arena, the entries or the index grow, and Reset keeps
// all three, so a table reused across searches is sized once.
//
// Entries are numbered 0, 1, … in insertion order, and a key's number is
// fixed until the next Reset: the index may be rebuilt as it grows, the
// entries never move. A caller may therefore hold an entry across
// further inserts instead of the key. The table offers no iteration, so
// no map order can leak into what a caller reports. The zero value is an
// empty table; a KeyTable is not safe for concurrent use.
type KeyTable struct {
	arena   []byte
	entries []keyEntry
	index   []int32 // entry number + 1 per slot, 0 for an empty slot; its length is a power of two
}

type keyEntry struct {
	hash uint64
	off  int32 // the key's bytes are arena[off:][:n]
	n    int32
	val  int32
}

// Reset empties the table and keeps its storage.
func (t *KeyTable) Reset() {
	t.arena, t.entries = t.arena[:0], t.entries[:0]
	clear(t.index)
}

// Lookup returns key's entry and reports whether the key was already
// present; an absent key is inserted, with value v. The table keeps a
// copy of key, so the caller may reuse its buffer.
func (t *KeyTable) Lookup(key []byte, v int32) (entry int, found bool) {
	if 2*(len(t.entries)+1) > len(t.index) {
		t.grow()
	}
	h := hashKey(key)
	mask := len(t.index) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		i := int(t.index[s]) - 1
		if i < 0 {
			t.index[s] = int32(len(t.entries)) + 1
			t.entries = append(t.entries, keyEntry{hash: h, off: int32(len(t.arena)), n: int32(len(key)), val: v})
			t.arena = append(t.arena, key...)
			return len(t.entries) - 1, false
		}
		if t.entries[i].hash == h && bytes.Equal(t.key(i), key) {
			return i, true
		}
	}
}

// Value returns the value of an entry Lookup returned.
func (t *KeyTable) Value(entry int) int32 { return t.entries[entry].val }

// Set replaces the value of an entry Lookup returned.
func (t *KeyTable) Set(entry int, v int32) { t.entries[entry].val = v }

func (t *KeyTable) key(entry int) []byte {
	e := &t.entries[entry]
	return t.arena[e.off:][:e.n]
}

// grow doubles the index (64 slots at first) and re-places every entry
// by its cached hash; the entries and the arena stay where they are.
func (t *KeyTable) grow() {
	n := 2 * len(t.index)
	if n == 0 {
		n = 64
	}
	t.index = make([]int32, n)
	mask := n - 1
	for i := range t.entries {
		s := int(t.entries[i].hash) & mask
		for t.index[s] != 0 {
			s = (s + 1) & mask
		}
		t.index[s] = int32(i) + 1
	}
}

// hashKey is 64-bit FNV-1a, with the high half folded into the low bits
// the index is addressed by.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h ^ h>>32
}

// Visited is a set of canonical machine keys, used for cycle detection
// and fixpoint exploration. The zero value is an empty set; Reset empties
// it and keeps its storage, so a set reused across searches allocates
// only while it grows.
type Visited struct {
	keys KeyTable
	buf  []byte // AppendKey scratch
}

// Add inserts the machine's key and reports whether it was new.
func (v *Visited) Add(m *sched.Machine) bool {
	v.buf = m.AppendKey(v.buf[:0])
	_, found := v.keys.Lookup(v.buf, 0)
	return !found
}

// Reset empties the set.
func (v *Visited) Reset() { v.keys.Reset() }
