package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ecoscale/internal/trace"
)

func testKey(n int) Key {
	return Key{Scenario: "E1", Params: fmt.Sprintf("n=%d", n), Seed: 7, Version: "v1"}
}

func counter(reg *trace.Registry, name string) uint64 { return reg.CounterTotal(name) }

func TestMemoryRoundTrip(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := Open(Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(k, []byte("hello"))
	got, ok := s.Get(k)
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if counter(reg, MetricHits) != 1 || counter(reg, MetricMisses) != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", counter(reg, MetricHits), counter(reg, MetricMisses))
	}
}

func TestDiskPersistsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	k := testKey(2)
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(k, []byte("payload"))

	reg := trace.NewRegistry()
	s2, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || string(got) != "payload" {
		t.Fatalf("disk Get = %q, %v", got, ok)
	}
	if c := reg.CounterL(MetricHits, trace.L("tier", "disk")).Value; c != 1 {
		t.Fatalf("disk-tier hits = %d, want 1", c)
	}
	// The disk hit was promoted: a second Get is a memory hit.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if c := reg.CounterL(MetricHits, trace.L("tier", "mem")).Value; c != 1 {
		t.Fatalf("mem-tier hits = %d, want 1", c)
	}
}

// TestCorruptEntriesFallBack is the robustness satellite: every way an
// on-disk entry can rot — truncation, flipped payload bits, a stale
// format magic, a key mismatch — must read as a miss with a
// cache.corrupt tick, never as a wrong payload or a panic, and a
// recompute must be able to overwrite the wreck.
func TestCorruptEntriesFallBack(t *testing.T) {
	k := testKey(3)
	payload := []byte("the one true payload")

	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped payload bit", func(b []byte) []byte {
			b[diskHeaderLen+20] ^= 0x40 // inside the payload region
			return b
		}},
		{"bad magic / old format", func(b []byte) []byte {
			copy(b, "ECOCAS00")
			return b
		}},
		{"flipped checksum", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
		{"empty file", func(b []byte) []byte { return nil }},
		{"length fields lie", func(b []byte) []byte {
			b[12] ^= 0x01 // payLen low byte
			return b
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := trace.NewRegistry()
			s, err := Open(Options{Dir: dir, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			s.Put(k, payload)
			path := s.path(k.Hash())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(append([]byte(nil), b...)), 0o644); err != nil {
				t.Fatal(err)
			}

			// Fresh store (cold memory tier) must reject the entry.
			reg2 := trace.NewRegistry()
			s2, err := Open(Options{Dir: dir, Metrics: reg2})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s2.Get(k); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if counter(reg2, MetricCorrupt) != 1 {
				t.Fatalf("cache.corrupt = %d, want 1", counter(reg2, MetricCorrupt))
			}
			// Recompute path overwrites and subsequent reads are clean.
			got, hit, err := s2.Do(k, func() ([]byte, error) { return payload, nil })
			if err != nil || hit || !bytes.Equal(got, payload) {
				t.Fatalf("recompute after corruption: %q hit=%v err=%v", got, hit, err)
			}
			s3, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s3.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rewritten entry unreadable: %q %v", got, ok)
			}
		})
	}
}

// A key mismatch (an entry renamed onto the wrong address) is also
// corruption, even though the bytes are internally consistent.
func TestMisplacedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	s, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey(10), testKey(11)
	s.Put(a, []byte("A"))
	pa, pb := s.path(a.Hash()), s.path(b.Hash())
	if err := os.MkdirAll(filepath.Dir(pb), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(b); ok {
		t.Fatalf("misplaced entry served as %q", got)
	}
}

func TestReadOnlyNeverTouchesDisk(t *testing.T) {
	dir := t.TempDir()
	k := testKey(4)
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Put(k, []byte("keep"))

	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get(k); !ok || string(got) != "keep" {
		t.Fatalf("readonly Get = %q, %v", got, ok)
	}
	other := testKey(5)
	ro.Put(other, []byte("new"))
	if _, err := os.Stat(ro.path(other.Hash())); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("readonly Put wrote a disk entry")
	}
	// Corrupt the stored entry: readonly must reject it but leave the
	// file in place for the owner to deal with.
	path := ro.path(k.Hash())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro2, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro2.Get(k); ok {
		t.Fatal("corrupt entry served in readonly mode")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("readonly store deleted a corrupt file")
	}
}

func TestLRUEviction(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := Open(Options{MemBytes: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 24)
	s.Put(testKey(1), payload)
	s.Put(testKey(2), payload)
	if _, ok := s.Get(testKey(1)); !ok { // make key 1 most recent
		t.Fatal("key 1 missing before eviction")
	}
	s.Put(testKey(3), payload) // 72 bytes > 64: evicts LRU = key 2
	if counter(reg, MetricEvictions) != 1 {
		t.Fatalf("evictions = %d, want 1", counter(reg, MetricEvictions))
	}
	if _, ok := s.Get(testKey(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get(testKey(1)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := s.Get(testKey(3)); !ok {
		t.Fatal("new entry was evicted")
	}
}

// TestSingleflight is the dedup acceptance test at the store level: N
// concurrent requests for one key run compute exactly once, everyone
// gets the payload, and the other N-1 callers count as cache.dedup.
func TestSingleflight(t *testing.T) {
	const n = 16
	reg := trace.NewRegistry()
	s, err := Open(Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(6)
	var computes atomic.Int64
	gate := make(chan struct{})
	ready := make(chan struct{}, n)

	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready <- struct{}{}
			p, _, err := s.Do(k, func() ([]byte, error) {
				computes.Add(1)
				<-gate // hold the computation until every caller is queued
				return []byte("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = p
		}(i)
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	close(gate)
	wg.Wait()

	if c := computes.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for i, r := range results {
		if string(r) != "shared" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	// Everyone except the computing caller either deduplicated against
	// the in-flight call or (having queued before the gate opened but
	// arriving after completion) hit the memory tier.
	if got := counter(reg, MetricDedup) + counter(reg, MetricHits); got != n-1 {
		t.Fatalf("dedup+hits = %d, want %d", got, n-1)
	}
	if counter(reg, MetricMisses) != 1 {
		t.Fatalf("misses = %d, want 1", counter(reg, MetricMisses))
	}
}

func TestSingleflightErrorNotCached(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	boom := errors.New("boom")
	if _, _, err := s.Do(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not poison the key: the next Do computes again.
	p, hit, err := s.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(p) != "ok" {
		t.Fatalf("retry after error: %q hit=%v err=%v", p, hit, err)
	}
}

// TestKeySensitivity is the key-derivation satellite: flipping any
// single field of the (scenario, params, seed, version) tuple must
// produce a distinct address.
func TestKeySensitivity(t *testing.T) {
	base := Key{Scenario: "E3", Params: "workers=64", Seed: 42, Version: "sim/7"}
	variants := []Key{
		{Scenario: "E4", Params: "workers=64", Seed: 42, Version: "sim/7"},
		{Scenario: "E3", Params: "workers=65", Seed: 42, Version: "sim/7"},
		{Scenario: "E3", Params: "workers=64", Seed: 43, Version: "sim/7"},
		{Scenario: "E3", Params: "workers=64", Seed: 42, Version: "sim/8"},
	}
	seen := map[Hash]string{base.Hash(): "base"}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %d collides with %s", i, prev)
		}
		seen[h] = fmt.Sprintf("variant %d", i)
	}
	// Field-boundary ambiguity: shifting a byte between adjacent fields
	// must still change the hash (length-prefixed canonical form).
	a := Key{Scenario: "E3x", Params: "p"}
	b := Key{Scenario: "E3", Params: "xp"}
	if a.Hash() == b.Hash() {
		t.Fatal("field boundaries are ambiguous")
	}
}

func TestDiscard(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	s, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(8)
	s.Put(k, []byte("poisoned"))
	s.Discard(k)
	if _, ok := s.Get(k); ok {
		t.Fatal("discarded entry still served")
	}
	if _, err := os.Stat(s.path(k.Hash())); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("discarded entry still on disk")
	}
	if counter(reg, MetricCorrupt) != 1 {
		t.Fatalf("cache.corrupt = %d, want 1", counter(reg, MetricCorrupt))
	}
}

// FuzzDecodeEntry drives the disk-entry decoder. It must never panic;
// encodeEntry→decodeEntry must round-trip; a mutated entry (one byte
// flipped and/or the tail cut) must decode to errCorrupt or to the
// original payload; and arbitrary bytes that do decode must be exactly
// the canonical encoding of what they decode to. The seed corpus runs
// under plain go test.
func FuzzDecodeEntry(f *testing.F) {
	f.Add("E1", "n=1", int64(7), "v1", []byte("payload"), uint16(3), byte(0x20), uint16(0), []byte(nil))
	f.Add("", "", int64(0), "", []byte{}, uint16(0), byte(0), uint16(1), []byte("ECOCAS01"))
	f.Add("R4", "faults=3", int64(-1), "k9", bytes.Repeat([]byte{0xff}, 300), uint16(17), byte(1), uint16(9),
		encodeEntry(testKey(1), []byte("x")))
	f.Fuzz(func(t *testing.T, scenario, params string, seed int64, version string, payload []byte,
		pos uint16, flip byte, cut uint16, raw []byte) {
		k := Key{Scenario: scenario, Params: params, Seed: seed, Version: version}
		b := encodeEntry(k, payload)
		got, err := decodeEntry(k, b)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed: err=%v", err)
		}
		m := append([]byte(nil), b...)
		m[int(pos)%len(m)] ^= flip
		m = m[:len(m)-int(cut)%(len(m)+1)]
		got, err = decodeEntry(k, m)
		switch {
		case err != nil && err != errCorrupt:
			t.Fatalf("mutated entry: error %v, want errCorrupt", err)
		case err == nil && !bytes.Equal(got, payload):
			t.Fatal("mutated entry decoded to a different payload")
		}
		if got, err := decodeEntry(k, raw); err == nil && !bytes.Equal(encodeEntry(k, got), raw) {
			t.Fatal("raw bytes decoded but are not the canonical entry for their payload")
		} else if err != nil && err != errCorrupt {
			t.Fatalf("raw bytes: error %v, want errCorrupt", err)
		}
	})
}
