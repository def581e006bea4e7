package statespace

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// Find returns key's entry, or -1 if the key is absent: a lookup that
// inserts nothing, for checking the table against its model.
func (t *KeyTable) Find(key []byte) int {
	if len(t.index) == 0 {
		return -1
	}
	h := hashKey(key)
	mask := len(t.index) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		i := int(t.index[s]) - 1
		if i < 0 {
			return -1
		}
		if t.entries[i].hash == h && bytes.Equal(t.Key(i), key) {
			return i
		}
	}
}

// keyTableModel drives a KeyTable and a map beside it, and checks after
// every operation that they agree.
type keyTableModel struct {
	t       testing.TB
	table   KeyTable
	vals    map[string]int32
	entries map[string]int // the entry Lookup returned for each key
}

func newKeyTableModel(t testing.TB) *keyTableModel {
	return &keyTableModel{t: t, vals: map[string]int32{}, entries: map[string]int{}}
}

func (m *keyTableModel) lookup(key []byte, v int32) {
	m.t.Helper()
	entry, found := m.table.Lookup(key, v)
	want, ok := m.vals[string(key)]
	if found != ok {
		m.t.Fatalf("Lookup(%q): found %v, model %v", key, found, ok)
	}
	if !ok {
		// Entries are numbered densely in insertion order.
		if entry != len(m.vals) {
			m.t.Fatalf("Lookup(%q): new entry %d, want %d", key, entry, len(m.vals))
		}
		m.vals[string(key)], m.entries[string(key)] = v, entry
		want = v
	} else if entry != m.entries[string(key)] {
		m.t.Fatalf("Lookup(%q): entry %d, first returned as %d", key, entry, m.entries[string(key)])
	}
	if got := m.table.Value(entry); got != want {
		m.t.Fatalf("Lookup(%q): value %d, model %d", key, got, want)
	}
	if got := m.table.Key(entry); !bytes.Equal(got, key) {
		m.t.Fatalf("Lookup(%q): entry %d holds key %q", key, entry, got)
	}
}

func (m *keyTableModel) find(key []byte) {
	m.t.Helper()
	entry := m.table.Find(key)
	want, ok := m.entries[string(key)]
	if !ok {
		want = -1
	}
	if entry != want {
		m.t.Fatalf("Find(%q) = %d, model %d", key, entry, want)
	}
}

func (m *keyTableModel) set(key []byte, v int32) {
	m.t.Helper()
	entry, ok := m.entries[string(key)]
	if !ok {
		return
	}
	m.table.Set(entry, v)
	m.vals[string(key)] = v
	if got := m.table.Value(entry); got != v {
		m.t.Fatalf("Set(%q, %d): value %d", key, v, got)
	}
}

func (m *keyTableModel) reset() {
	m.table.Reset()
	clear(m.vals)
	clear(m.entries)
}

// checkAll looks every model key up again, by Find and by Lookup.
func (m *keyTableModel) checkAll() {
	m.t.Helper()
	for k, v := range m.vals {
		m.find([]byte(k))
		if entry, found := m.table.Lookup([]byte(k), v+1); !found || m.table.Value(entry) != v {
			m.t.Fatalf("Lookup(%q): found %v value %d, model %d", k, found, m.table.Value(entry), v)
		}
	}
}

// keyTableKeys is the test's key pool: every length the spec calls out
// (0, 1, 63, 64, 65, over 200), keys that share long prefixes, and many
// short machine-key-like ones, so the table doubles several times.
func keyTableKeys() [][]byte {
	keys := [][]byte{{}, {'a'}, {0}}
	for _, n := range []int{63, 64, 65, 201, 300} {
		keys = append(keys, bytes.Repeat([]byte{'x'}, n))
	}
	prefix := strings.Repeat("1:2,3|0:|", 30)
	for i := 0; i < 40; i++ {
		keys = append(keys, []byte(prefix+string(rune('a'+i%26))+strings.Repeat("9", i/26)))
	}
	for i := 0; i < 700; i++ {
		keys = append(keys, []byte(strings.Repeat("|", i%3)+string(rune('0'+i%10))+":"+strings.Repeat(",1", i/10)))
	}
	return keys
}

func TestKeyTableMatchesMap(t *testing.T) {
	keys := keyTableKeys()
	rng := rand.New(rand.NewSource(1))
	m := newKeyTableModel(t)
	for round := 0; round < 4; round++ {
		for op := 0; op < 5000; op++ {
			key := keys[rng.Intn(len(keys))]
			// Round r draws from a growing share of the pool, so later
			// rounds grow a Reset table past where the earlier ones did.
			if round < 3 {
				key = keys[rng.Intn(len(keys)*(round+1)/4)]
			}
			buf := append([]byte(nil), key...)
			switch rng.Intn(4) {
			case 0, 1:
				m.lookup(buf, int32(rng.Intn(100)-2))
			case 2:
				m.find(buf)
			case 3:
				m.set(buf, int32(rng.Intn(100)-2))
			}
			// The table copies its keys: scribbling on the caller's
			// buffer afterwards changes nothing.
			for i := range buf {
				buf[i] = '#'
			}
		}
		m.checkAll()
		if round == 3 && len(m.vals) < 512 {
			t.Fatalf("only %d keys: the table never grew across several doublings", len(m.vals))
		}
		m.reset()
		for _, k := range keys {
			m.find(k)
		}
	}
}

// FuzzKeyTable runs the differential model on an operation sequence
// decoded from the input: each op is a kind byte, a key length byte and
// that many key bytes; a value is taken from the kind byte's high bits.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 2, 3, 'a', 'b', 'c', 3, 0, 4, 0})
	f.Add(bytes.Repeat([]byte{0, 65, 'y'}, 40))
	f.Add(append([]byte{0, 200}, bytes.Repeat([]byte{'z'}, 200)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newKeyTableModel(t)
		for len(data) >= 2 {
			kind, n := data[0], int(data[1])
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			key := data[:n]
			data = data[n:]
			v := int32(kind>>3) - 2
			switch kind % 5 {
			case 0, 1:
				m.lookup(key, v)
			case 2:
				m.find(key)
			case 3:
				m.set(key, v)
			case 4:
				m.reset()
			}
		}
		m.checkAll()
	})
}

// An insert allocates only while the table grows: a Reset table refilled
// with the same keys allocates nothing.
func TestKeyTableAllocatesNothingOnceSized(t *testing.T) {
	keys := keyTableKeys()
	var table KeyTable
	fill := func() {
		table.Reset()
		for i, k := range keys {
			table.Lookup(k, int32(i))
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling a sized table with %d keys allocates %.0f objects, want 0", len(keys), n)
	}
}

// Reset clears only the slots its entries hold, so it must find every
// one of them: after growth past 4 096 entries a reset table is empty —
// every index slot zero, no earlier key found — and it then refills, a
// few keys at a time and Reset after Reset, in step with the model.
func TestKeyTableResetAfterGrowth(t *testing.T) {
	m := newKeyTableModel(t)
	emptied := func() {
		t.Helper()
		for s, v := range m.table.index {
			if v != 0 {
				t.Fatalf("slot %d of %d still holds entry %d after Reset", s, len(m.table.index), v-1)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		m.lookup([]byte(strconv.Itoa(i)), int32(i))
	}
	m.reset()
	emptied()
	for i := 0; i < 5000; i += 7 {
		m.find([]byte(strconv.Itoa(i)))
	}
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 100; round++ {
		for op := 0; op < 1+rng.Intn(40); op++ {
			key := []byte(strconv.Itoa(rng.Intn(64)))
			switch rng.Intn(3) {
			case 0:
				m.lookup(key, int32(op))
			case 1:
				m.find(key)
			case 2:
				m.set(key, int32(round))
			}
		}
		m.checkAll()
		m.reset()
		emptied()
	}
}
