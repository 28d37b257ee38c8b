package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"

	"setagree/internal/store"
)

// tableLogs opens one fresh table per key-log backend: the heap, and a
// store arena with 4 KiB chunks, so keys straddle chunk boundaries.
func tableLogs(t *testing.T) map[string]*internTable {
	t.Helper()
	s, err := store.Open(store.Options{Dir: t.TempDir(), ChunkBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	out := map[string]*internTable{}
	for name, arena := range map[string]*store.Arena{"heap": nil, "arena": s.Keys} {
		tab := tablePool.New().(*internTable)
		tab.reset(arena)
		out[name] = tab
	}
	return out
}

// tableOracle checks an internTable against a map[string]int reference.
type tableOracle struct {
	t    *testing.T
	tab  *internTable
	ref  map[string]int
	dups int // collision slots filed since the last reset
	next int // counter behind growth keys
}

func newOracle(t *testing.T, tab *internTable) *tableOracle {
	return &tableOracle{t: t, tab: tab, ref: map[string]int{}}
}

// probe looks k up and, when intern is set and k is absent, interns it:
// the table must agree with the reference and assign the next ordinal.
func (o *tableOracle) probe(k []byte, intern bool) {
	o.t.Helper()
	id, ok := o.tab.lookup(k)
	want, wok := o.ref[string(k)]
	if ok != wok || id != want {
		o.t.Fatalf("lookup(%x) = %d,%v; reference %d,%v", k, id, ok, want, wok)
	}
	if ok || !intern {
		return
	}
	id, err := o.tab.intern(k)
	if err != nil || id != len(o.ref) {
		o.t.Fatalf("intern(%x) = %d,%v; want id %d", k, id, err, len(o.ref))
	}
	o.ref[string(k)] = id
}

// reset empties the table for reuse over the same key log; no slot of
// the previous use may survive.
func (o *tableOracle) reset() {
	o.t.Helper()
	o.tab.reset(o.tab.keys.arena)
	for i, sl := range o.tab.slots {
		if sl != (slot{}) {
			o.t.Fatalf("slot %d survives reset: %+v", i, sl)
		}
	}
	clear(o.ref)
	o.dups = 0
}

// rejectEmpty checks that an empty key is refused and changes nothing.
func (o *tableOracle) rejectEmpty() {
	o.t.Helper()
	n, size := o.tab.n, o.tab.keys.len()
	if _, err := o.tab.intern(nil); err == nil {
		o.t.Fatal("intern of the empty key succeeded")
	}
	if o.tab.n != n || o.tab.keys.len() != size {
		o.t.Fatal("rejected empty key changed the table")
	}
}

// collide files one more slot for stored key k under the hash of the
// absent key q — as though their full hashes collided — so a probe for
// q must reject it by length or bytes. At most 8 such slots exist per
// reset, so the extra occupancy never fills a table of minSlots.
func (o *tableOracle) collide(k, q []byte) {
	id, ok := o.ref[string(k)]
	if _, present := o.ref[string(q)]; !ok || present || len(q) == 0 || o.dups == 8 {
		return
	}
	for _, sl := range o.tab.slots {
		if sl.klen != 0 && int(sl.id) == id {
			sl.hash = maphash.Bytes(o.tab.seed, q)
			o.tab.insert(sl)
			o.dups++
			o.probe(q, false)
			return
		}
	}
	o.t.Fatalf("key %x has no slot", k)
}

// verify checks every reference key and the table's count.
func (o *tableOracle) verify() {
	o.t.Helper()
	for k, want := range o.ref {
		if id, ok := o.tab.lookup([]byte(k)); !ok || id != want {
			o.t.Fatalf("lookup(%x) = %d,%v; want %d", k, id, ok, want)
		}
	}
	if o.tab.n != len(o.ref) {
		o.t.Fatalf("table holds %d keys, reference %d", o.tab.n, len(o.ref))
	}
}

// opKey is the key a two-byte operand names: a prefix of one fixed
// 256-byte pattern, with its last byte perturbed, so keys that are
// prefixes of one another or differ only in their last byte abound.
func opKey(a, c byte) []byte {
	k := make([]byte, 1+int(a))
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	k[len(k)-1] ^= c & 3
	return k
}

// run interprets ops as a sequence of table operations. Each op byte
// selects, modulo 6: intern (and probe) the key its next two bytes
// name, look that key up only, intern 8 to 64 fresh keys (growth
// across doublings), reset the table for reuse, intern the empty key,
// or file a collision between the last interned key and its one-byte
// shorter prefix or its last-byte variant.
func (o *tableOracle) run(ops []byte) {
	var last []byte
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		switch b % 6 {
		case 0, 1:
			if i+2 >= len(ops) {
				return
			}
			k := opKey(ops[i+1], ops[i+2])
			i += 2
			o.probe(k, b%6 == 0)
			if _, ok := o.ref[string(k)]; ok {
				last = k
			}
		case 2:
			for n := 8 << (b >> 6); n > 0; n-- {
				o.next++
				o.probe(binary.AppendUvarint([]byte{0xff}, uint64(o.next)), true)
			}
		case 3:
			o.reset()
			last = nil
		case 4:
			o.rejectEmpty()
		case 5:
			if last == nil {
				continue
			}
			if b&8 != 0 {
				o.collide(last, last[:len(last)-1])
			} else {
				o.collide(last, append(bytes.Clone(last[:len(last)-1]), last[len(last)-1]^0x80))
			}
		}
	}
	o.verify()
}

// FuzzInternTable drives interleaved intern/lookup/reset sequences on
// both key logs against a map reference. Its seed corpus is in
// testdata/fuzz/FuzzInternTable.
func FuzzInternTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, tab := range tableLogs(t) {
			newOracle(t, tab).run(ops)
		}
	})
}

// TestInternTableOracle is the table's deterministic property test, on
// both key logs: random op sequences against the reference; long keys
// that differ only in their last byte; growth to 200,000 keys; reuse
// after reset with a smaller and then a larger key set; forced full-hash
// collisions with a prefix and with a last-byte variant; and empty-key
// rejection.
func TestInternTableOracle(t *testing.T) {
	for name, tab := range tableLogs(t) {
		t.Run(name, func(t *testing.T) {
			o := newOracle(t, tab)
			rng := rand.New(rand.NewSource(1))
			for seq := 0; seq < 20; seq++ {
				ops := make([]byte, 400)
				rng.Read(ops)
				o.run(ops)
			}

			o.reset()
			var keys [][]byte
			for i := 0; i < 3000; i++ {
				k := bytes.Repeat([]byte{byte(i >> 8), byte(i)}, 40+i%7)
				keys = append(keys, k, append(bytes.Clone(k), 0), append(bytes.Clone(k), 1))
			}
			for _, k := range keys {
				o.probe(k, true)
				o.probe(append(bytes.Clone(k), 2), false)
			}
			o.verify()

			o.reset()
			for i := 0; i < 200000; i++ {
				o.probe([]byte(fmt.Sprintf("key-%d-%d", i, i*i)), true)
			}
			o.verify()
			o.probe([]byte("absent"), false)

			// Reuse: the table was sized for 200,000 keys; now a smaller
			// set that re-interns keys the stale slots would still find,
			// then a larger one.
			for _, n := range []int{1000, 30000} {
				o.reset()
				for i := n - 1; i >= 0; i-- {
					o.probe([]byte(fmt.Sprintf("key-%d-%d", i, i*i)), true)
				}
				o.verify()
			}

			for _, q := range []string{"abcdefgh", "abcdefgi", "abcdefghi"} {
				o.reset()
				o.probe([]byte("abcdefgh"), true)
				o.collide([]byte("abcdefgh"), []byte(q)[:len(q)-1])
				o.collide([]byte("abcdefgh"), []byte(q))
				o.probe([]byte(q), true)
				o.verify()
			}
			o.rejectEmpty()
		})
	}
}

// TestInternDeterministicAcrossSeeds: tables with different hash seeds
// assign the same ids to the same key sequence and agree on every
// lookup, present and absent.
func TestInternDeterministicAcrossSeeds(t *testing.T) {
	tabs := tableLogs(t)
	a, b := tabs["heap"], tabs["arena"]
	for a.seed == b.seed {
		b.seed = maphash.MakeSeed()
	}
	var keys [][]byte
	for i := 0; i < 3000; i++ {
		k := bytes.Repeat([]byte{byte(i >> 8), byte(i)}, 40+i%7)
		keys = append(keys, k, append(bytes.Clone(k), 0), append(bytes.Clone(k), 1))
	}
	for i, k := range keys {
		ia, errA := a.intern(k)
		ib, errB := b.intern(k)
		if errA != nil || errB != nil || ia != i || ib != i {
			t.Fatalf("key %d interned as %d,%v and %d,%v", i, ia, errA, ib, errB)
		}
	}
	for i, k := range keys {
		ia, okA := a.lookup(k)
		ib, okB := b.lookup(k)
		if !okA || !okB || ia != i || ib != i {
			t.Fatalf("lookup(key %d) = %d,%v and %d,%v; want %d in both", i, ia, okA, ib, okB, i)
		}
		absent := append(bytes.Clone(k), 2)
		if _, ok := a.lookup(absent); ok {
			t.Fatalf("key %d: absent key found", i)
		}
		if _, ok := b.lookup(absent); ok {
			t.Fatalf("key %d: absent key found", i)
		}
	}
}

// TestInternTableIDWidth: ids are int32, so a table holding maxKeys
// keys refuses the next one with an error wrapping ErrStateLimit — and
// leaves itself unchanged — instead of wrapping an id. The count is
// forced near the limit; the slots hold only the keys interned here.
func TestInternTableIDWidth(t *testing.T) {
	tab := tablePool.New().(*internTable)
	tab.reset(nil)
	tab.n = maxKeys - 1
	id, err := tab.intern([]byte("last"))
	if err != nil || id != maxKeys-1 {
		t.Fatalf("intern of key %d = %d,%v", maxKeys-1, id, err)
	}
	if got, ok := tab.lookup([]byte("last")); !ok || got != maxKeys-1 {
		t.Fatalf("lookup = %d,%v; want %d", got, ok, maxKeys-1)
	}
	size := tab.keys.len()
	id, err = tab.intern([]byte("one too many"))
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("intern past the id width = %d,%v; want ErrStateLimit", id, err)
	}
	if tab.n != maxKeys || tab.keys.len() != size {
		t.Fatal("refused intern changed the table")
	}
	if _, ok := tab.lookup([]byte("one too many")); ok {
		t.Fatal("refused key is interned")
	}
}

// TestByteLogHeapMatchesArena: a heap byteLog and an arena one fed the
// same random appends agree on len, on every record and on the bytes
// of their sections. The appends run past several fixed 64 KiB heap
// chunks and include records larger than one chunk; records straddle
// every heap chunk boundary, from 4 KiB to 64 KiB and beyond. A reset
// heap log, reusing its chunks, must agree again with a fresh arena.
func TestByteLogHeapMatchesArena(t *testing.T) {
	s, err := store.Open(store.Options{Dir: t.TempDir(), ChunkBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	var heap byteLog
	for round, arena := range []*store.Arena{s.Keys, s.Edges} {
		heap.reset(nil)
		logs := map[string]*byteLog{"heap": &heap, "arena": {arena: arena}}
		var ref []byte
		var starts []int64
		for len(ref) < 400<<10 {
			n := 1 + rng.Intn(300)
			if rng.Intn(40) == 0 {
				n = 1<<maxChunkShift + rng.Intn(5000)
			}
			b := make([]byte, n)
			rng.Read(b)
			for name, l := range logs {
				if off, err := l.append(b); err != nil || off != int64(len(ref)) {
					t.Fatalf("round %d %s: append at %d = %d, %v", round, name, len(ref), off, err)
				}
			}
			starts = append(starts, int64(len(ref)))
			ref = append(ref, b...)
		}
		size := int64(len(ref))
		check := func(start, end int64) {
			t.Helper()
			start, end = max(start, 0), min(end, size)
			if start >= end {
				return
			}
			for name, l := range logs {
				rec, _ := l.record(start, end, nil)
				if !bytes.Equal(rec, ref[start:end]) {
					t.Fatalf("round %d %s: record [%d,%d) differs", round, name, start, end)
				}
				scratch := make([]byte, 0, 16)
				if rec, buf := l.record(start, end, scratch); !bytes.Equal(rec, ref[start:end]) || (len(buf) > 0 && &rec[0] != &buf[0]) {
					t.Fatalf("round %d %s: record [%d,%d) with scratch differs", round, name, start, end)
				}
			}
		}
		for name, l := range logs {
			if l.len() != size {
				t.Fatalf("round %d %s: len %d, want %d", round, name, l.len(), size)
			}
		}
		for i, start := range starts {
			end := size
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			check(start, end)
		}
		var bounds []int64
		for i, b := 0, int64(0); b < size; i++ {
			b += int64(chunkSize(i))
			bounds = append(bounds, b)
			if c, co := chunkAt(b - 1); c != i || co != int64(chunkSize(i))-1 {
				t.Fatalf("chunkAt(%d) = %d,%d; want the last byte of chunk %d", b-1, c, co, i)
			}
			if c, co := chunkAt(b); c != i+1 || co != 0 {
				t.Fatalf("chunkAt(%d) = %d,%d; want the first byte of chunk %d", b, c, co, i+1)
			}
		}
		if len(bounds) < 8 || bounds[4] != 124<<10 {
			t.Fatalf("heap chunk bounds %v: want 4, 12, 28, 60, 124 KiB, then 64 KiB steps", bounds)
		}
		for _, b := range bounds {
			for _, w := range []int64{1, 2, 7, 300, 1<<maxChunkShift + 10} {
				for _, d := range []int64{-w, -w / 2, -1, 0, 1} {
					check(b+d, b+d+w)
				}
			}
		}
		// A record inside one heap chunk is a view of it, not a copy.
		if rec, _ := heap.record(5000, 5100, nil); &rec[0] != &heap.chunks[1][5000-4096] {
			t.Fatal("in-chunk heap record was copied")
		}
		for _, upTo := range append([]int64{0, 1, 4095, size / 3, size}, bounds[:len(bounds)-1]...) {
			for name, l := range logs {
				if got := bytes.Join(l.sections(upTo), nil); !bytes.Equal(got, ref[:upTo]) {
					t.Fatalf("round %d %s: sections(%d) hold different bytes", round, name, upTo)
				}
			}
		}
	}
}
