package assign

import (
	"reflect"
	"testing"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/duplication"
)

func roundTrip(t *testing.T, enc func(alloccache.Entry) ([]byte, error), dec func([]byte) (alloccache.Entry, error), e alloccache.Entry) alloccache.Entry {
	t.Helper()
	data, err := enc(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := dec(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestAllocEntryRoundTrip(t *testing.T) {
	e := &allocEntry{al: Allocation{
		Copies:      duplication.Copies{1: 3, 2: 1 << 63},
		Unassigned:  []int{5},
		Forced:      nil,
		SingleCopy:  10,
		MultiCopy:   2,
		TotalCopies: 14,
		Atoms:       3,
		Degraded:    false,
		Phases: []PhaseReport{
			{Phase: "stor1", Method: "exhaustive", Nodes: 1234, Elapsed: 5 * time.Millisecond, Cached: true},
			{Phase: "stor2/global", Method: "coloring", Fallback: "hittingset"},
		},
	}}
	got := roundTrip(t, encodeAllocEntry, decodeAllocEntry, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, e)
	}
}

func TestAtomColorRoundTrip(t *testing.T) {
	e := &atomColorResult{assign: map[int]int{0: 1, 4: 0, 9: 3}, unassigned: []int{2}}
	got := roundTrip(t, encodeAtomColorEntry, decodeAtomColorEntry, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, e)
	}
	empty := &atomColorResult{assign: map[int]int{}, unassigned: nil}
	got2 := roundTrip(t, encodeAtomColorEntry, decodeAtomColorEntry, empty).(*atomColorResult)
	if got2.assign == nil || got2.unassigned != nil {
		t.Fatalf("empty shapes: %#v", got2)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	e := &allocEntry{al: Allocation{
		Copies:     duplication.Copies{1: 3},
		Unassigned: []int{5, 6},
		Phases:     []PhaseReport{{Phase: "stor1", Method: "exhaustive"}},
	}}
	data, err := encodeAllocEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func([]byte) (alloccache.Entry, error){
		"assign":    decodeAllocEntry,
		"atomcolor": decodeAtomColorEntry,
	}
	for name, dec := range decoders {
		// Truncations at every length must error, never panic or half-build.
		for n := 0; n < len(data); n++ {
			if _, err := dec(data[:n]); err == nil && !(name == "assign" && n == len(data)) {
				// A strict prefix can only legitimately decode at the assign
				// decoder on the full payload.
				t.Fatalf("%s decoder accepted truncation at %d", name, n)
			}
		}
		// Trailing garbage must error too.
		if _, err := dec(append(append([]byte(nil), data...), 0x7)); err == nil {
			t.Fatalf("%s decoder accepted trailing bytes", name)
		}
	}
	// Wrong format byte.
	bad := append([]byte(nil), data...)
	bad[0] = 0x7F
	if _, err := decodeAllocEntry(bad); err == nil {
		t.Fatal("accepted wrong format byte")
	}
	// Another level's payload.
	data2, _ := encodeAtomColorEntry(&atomColorResult{assign: map[int]int{}})
	if _, err := decodeAllocEntry(data2); err == nil {
		t.Fatal("assign decoder accepted an atomcolor payload")
	}
}

func TestCodecsRegisteredForAllLevels(t *testing.T) {
	// The init registration is what wires the disk tier; prove each level
	// round-trips through the cache-facing registry path by exercising a
	// cache with a byte backing.
	type kv struct{ m map[string][]byte }
	back := &kv{m: map[string][]byte{}}
	backing := backingFuncs{
		get: func(k string) ([]byte, bool) { v, ok := back.m[k]; return v, ok },
		put: func(k string, v []byte) { back.m[k] = v },
	}
	c := alloccache.New(8)
	c.SetBacking(backing)

	keys := map[string]alloccache.Entry{}
	{
		k := alloccache.NewKey(nil)
		k.Str("assign")
		k.Str("x")
		keys[k.String()] = &allocEntry{al: Allocation{Copies: duplication.Copies{0: 1}, TotalCopies: 1, SingleCopy: 1}}
	}
	{
		k := alloccache.NewKey(nil)
		k.Str("atomcolor")
		k.Str("x")
		keys[k.String()] = &atomColorResult{assign: map[int]int{1: 0}}
	}
	for key, e := range keys {
		c.Put(key, e)
	}
	if len(back.m) != len(keys) {
		t.Fatalf("backing holds %d records, want %d (a level is missing its codec)", len(back.m), len(keys))
	}
	// A cold cache over the same backing must reproduce every entry.
	c2 := alloccache.New(8)
	c2.SetBacking(backing)
	for key, want := range keys {
		got, ok := c2.Get(key)
		if !ok {
			t.Fatalf("cold cache missed %q", key[:16])
		}
		if !reflect.DeepEqual(got, want.(alloccache.Entry).CloneEntry()) {
			t.Fatalf("disk-tier entry differs:\n got %#v\nwant %#v", got, want)
		}
	}
}

type backingFuncs struct {
	get func(string) ([]byte, bool)
	put func(string, []byte)
}

func (b backingFuncs) Get(key string) ([]byte, bool) { return b.get(key) }
func (b backingFuncs) Put(key string, val []byte)    { b.put(key, val) }
