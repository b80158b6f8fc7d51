package cellcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type spec struct {
		Family      string `json:"family"`
		Concurrency int    `json:"concurrency"`
		Seed        int64  `json:"seed"`
	}
	base := Key(spec{"aqmsweep", 10, 1}, "v1")
	if again := Key(spec{"aqmsweep", 10, 1}, "v1"); again != base {
		t.Fatalf("same spec hashed twice: %s vs %s", base, again)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a hex sha256", base)
	}
	for name, other := range map[string]string{
		"family":       Key(spec{"recoverysweep", 10, 1}, "v1"),
		"concurrency":  Key(spec{"aqmsweep", 40, 1}, "v1"),
		"seed":         Key(spec{"aqmsweep", 10, 2}, "v1"),
		"code version": Key(spec{"aqmsweep", 10, 1}, "v2"),
	} {
		if other == base {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
}

func TestKeyPanicsOnUnmarshalableSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Key accepted a spec json.Marshal cannot encode")
		}
	}()
	Key(map[string]any{"f": func() {}}, "v1")
}

func TestStoreMemoryTier(t *testing.T) {
	s := NewMemory()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a payload")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d after one empty Get, want 1", s.Misses())
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	if s.Hits() != 1 || s.Len() != 1 {
		t.Fatalf("hits=%d len=%d, want 1, 1", s.Hits(), s.Len())
	}
	s.ResetStats()
	if s.Hits() != 0 || s.Misses() != 0 {
		t.Fatal("ResetStats left counters nonzero")
	}
}

func TestStoreDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("row")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.cell")); err != nil {
		t.Fatalf("payload not on disk: %v", err)
	}
	// A fresh store over the same directory (new process) must serve the
	// payload from disk and count it as a hit.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("deadbeef")
	if !ok || string(got) != "row" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if s2.Hits() != 1 {
		t.Fatalf("reopened hits = %d, want 1", s2.Hits())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewMemory()
	s.SetMemLimit(10)
	if err := s.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim when c overflows the budget.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := s.Put("c", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b survived past the memory budget")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}

	// A disk-backed store refills evicted entries from disk.
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetMemLimit(4)
	if err := d.Put("x", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("oversized payload retained in memory (len=%d)", d.Len())
	}
	if got, ok := d.Get("x"); !ok || string(got) != "12345" {
		t.Fatalf("disk refill Get = %q, %v", got, ok)
	}
}

func TestValidatePersistent(t *testing.T) {
	if err := ValidatePersistent("dev", false); err == nil {
		t.Fatal("dev build accepted for a persistent cache without force")
	} else if !strings.Contains(err.Error(), "-cache-force") {
		t.Fatalf("refusal does not name the override flag: %v", err)
	}
	if err := ValidatePersistent("dev", true); err != nil {
		t.Fatalf("forced dev build refused: %v", err)
	}
	if err := ValidatePersistent("abc123+dirty", false); err == nil {
		t.Fatal("dirty-tree build accepted for a persistent cache without force")
	} else if !strings.Contains(err.Error(), "-cache-force") {
		t.Fatalf("dirty refusal does not name the override flag: %v", err)
	}
	if err := ValidatePersistent("abc123+dirty", true); err != nil {
		t.Fatalf("forced dirty build refused: %v", err)
	}
	if err := ValidatePersistent("abc123", false); err != nil {
		t.Fatalf("stamped build refused: %v", err)
	}
}

func TestCodeVersionNonEmpty(t *testing.T) {
	// Under `go test` there is no vcs stamp, so this exercises the "dev"
	// fallback; the contract is only that the version is never empty.
	if CodeVersion() == "" {
		t.Fatal("CodeVersion() returned an empty string")
	}
}

// countedRow is a pointer-free row that counts its JSON decodes, so the
// tests can tell a value-copy hit from a decoded one.
type countedRow struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	F    float64 `json:"f"`
}

var rowDecodes atomic.Int64

func (r *countedRow) UnmarshalJSON(b []byte) error {
	rowDecodes.Add(1)
	type plain countedRow
	return json.Unmarshal(b, (*plain)(r))
}

// sliceRow is a row assignment does not deep-copy.
type sliceRow struct {
	Vals []int `json:"vals"`
}

type rowSpec struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
}

// mustCell resolves spec through s with a compute that must only run when
// wantComputed says so.
func mustCell[T any](t *testing.T, s *Store, spec any, wantComputed bool, fresh T) *T {
	t.Helper()
	out, computed, err := Cell(s, spec, "v1", func() (*T, error) { v := fresh; return &v, nil })
	if err != nil {
		t.Fatal(err)
	}
	if computed != wantComputed {
		t.Fatalf("computed = %v, want %v", computed, wantComputed)
	}
	return out
}

func TestCacheMemoryHitCopiesWithoutDecoding(t *testing.T) {
	want := countedRow{"a", 7, 0.1}
	spec := rowSpec{"counted", 1}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rowDecodes.Store(0)
	mustCell(t, s, spec, true, want)
	first := mustCell(t, s, spec, false, countedRow{})
	*first = countedRow{"scribbled", -1, -1} // every field overwritten
	second := mustCell(t, s, spec, false, countedRow{})
	if *second != want || second == first {
		t.Fatalf("hit after the caller scribbled on the last one = %+v (same pointer: %v), want %+v",
			*second, second == first, want)
	}
	if n := rowDecodes.Load(); n != 0 {
		t.Errorf("%d JSON decodes on memory-tier hits of a row just stored, want 0", n)
	}

	// A fresh store on the directory decodes the disk payload once, then
	// serves value copies.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := mustCell(t, s2, spec, false, countedRow{}); *got != want {
			t.Fatalf("disk-backed hit %d = %+v, want %+v", i, *got, want)
		}
	}
	if n := rowDecodes.Load(); n != 1 {
		t.Errorf("%d JSON decodes over three hits on a fresh disk-backed store, want 1", n)
	}

	// With no memory tier every hit is a disk read and a decode, and still
	// the same row.
	s2.SetMemLimit(0)
	if got := mustCell(t, s2, spec, false, countedRow{}); *got != want {
		t.Fatalf("hit with the memory tier off = %+v, want %+v", *got, want)
	}
	if n := rowDecodes.Load(); n != 2 {
		t.Errorf("%d JSON decodes after a hit with the memory tier off, want 2", n)
	}
	if s2.Misses() != 0 || s.Misses() != 1 {
		t.Errorf("misses: filling store %d, reading store %d; want 1 and 0", s.Misses(), s2.Misses())
	}
}

// TestCacheSliceRowNeverShared: a row holding a slice is decoded on every
// hit, so no caller can reach another's backing array (or compute's).
func TestCacheSliceRowNeverShared(t *testing.T) {
	s := NewMemory()
	spec := rowSpec{"slice", 1}
	computed := mustCell(t, s, spec, true, sliceRow{Vals: []int{1, 2, 3}})
	computed.Vals[0] = 99
	first := mustCell(t, s, spec, false, sliceRow{})
	first.Vals[1] = 99
	first.Vals = append(first.Vals, 4)
	second := mustCell(t, s, spec, false, sliceRow{})
	if !reflect.DeepEqual(second.Vals, []int{1, 2, 3}) {
		t.Fatalf("hit = %v after earlier holders mutated theirs, want [1 2 3]", second.Vals)
	}
	if e := s.mem[Key(spec, "v1")].Value.(*lruEntry); e.value != nil {
		t.Errorf("entry retains a decoded %T; rows with slices must not be shared", e.value)
	}
}

func TestPointerFree(t *testing.T) {
	type inner struct {
		A [3]int64
		S string
	}
	for _, tc := range []struct {
		v    any
		want bool
	}{
		{countedRow{}, true},
		{struct {
			I inner
			B bool
			U uint8
		}{}, true},
		{sliceRow{}, false},
		{struct{ P *int }{}, false},
		{struct{ M map[string]int }{}, false},
		{struct{ I any }{}, false},
		{struct{ F func() }{}, false},
		{struct{ C chan int }{}, false},
		{struct{ A [2][]int }{}, false},
		{struct{ I struct{ P *inner } }{}, false},
	} {
		if got := pointerFree(reflect.TypeOf(tc.v)); got != tc.want {
			t.Errorf("pointerFree(%T) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestCacheEvictionDropsDecodedRow: the decoded row leaves the memory tier with
// its payload (nothing in the store keeps the entry alive), and a later
// disk hit brings both back.
func TestCacheEvictionDropsDecodedRow(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, want := rowSpec{"evict", 1}, countedRow{"a", 1, 2}
	mustCell(t, s, spec, true, want)
	key := Key(spec, "v1")
	e := s.mem[key].Value.(*lruEntry)
	if e.value != want {
		t.Fatalf("entry value after Put = %v, want %v", e.value, want)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(e, func(*lruEntry) { close(collected) })
	e = nil

	s.SetMemLimit(0)
	if s.Len() != 0 || s.lru.Len() != 0 || s.memUsed != 0 {
		t.Fatalf("after eviction: Len %d, list %d, %d bytes; want all 0", s.Len(), s.lru.Len(), s.memUsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gone := false; !gone; {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the evicted entry (payload and decoded row) is still reachable")
			}
		}
	}

	s.SetMemLimit(DefaultMemLimit)
	rowDecodes.Store(0)
	if got := mustCell(t, s, spec, false, countedRow{}); *got != want {
		t.Fatalf("disk hit after eviction = %+v, want %+v", *got, want)
	}
	if e := s.mem[key].Value.(*lruEntry); s.Len() != 1 || e.value != want || rowDecodes.Load() != 1 {
		t.Errorf("after the disk hit: Len %d, entry value %v, %d decodes; want 1, %v, 1",
			s.Len(), e.value, rowDecodes.Load(), want)
	}
}

// TestCacheCorruptPayloadRecomputes: a payload that does not decode (torn or
// foreign file) is a miss for Cell — recomputed and overwritten — in
// memory and on disk.
func TestCacheCorruptPayloadRecomputes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, want := rowSpec{"corrupt", 1}, countedRow{"a", 1, 2}
	mustCell(t, s, spec, true, want)
	file := filepath.Join(dir, Key(spec, "v1")+".cell")
	if err := os.WriteFile(file, []byte(`{"name":"a","n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCell(t, fresh, spec, true, want); *got != want {
		t.Fatalf("recomputed row = %+v, want %+v", *got, want)
	}
	if got := mustCell(t, fresh, spec, false, countedRow{}); *got != want {
		t.Fatalf("hit after the recompute = %+v, want %+v", *got, want)
	}
	if b, err := os.ReadFile(file); err != nil || len(b) < frameHeader || !json.Valid(b[frameHeader:]) {
		t.Errorf("disk file after the recompute = %q (%v), want the row's JSON framed", b, err)
	}
}

// TestCacheConcurrentHits hammers one warm store from parallel workers the
// way RunTrials does (run with -race): every hit a private, pristine row.
func TestCacheConcurrentHits(t *testing.T) {
	s := NewMemory()
	const cells = 16
	for i := 0; i < cells; i++ {
		mustCell(t, s, rowSpec{"par", int64(i)}, true, countedRow{"r", i, float64(i)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := n % cells
				out, computed, err := Cell(s, rowSpec{"par", int64(i)}, "v1",
					func() (*countedRow, error) { return nil, errors.New("warm cell recomputed") })
				if err != nil || computed || *out != (countedRow{"r", i, float64(i)}) {
					t.Errorf("cell %d: %+v computed=%v err=%v", i, out, computed, err)
					return
				}
				*out = countedRow{} // scribble on the private copy
			}
		}()
	}
	wg.Wait()
	if s.Misses() != cells {
		t.Errorf("misses = %d, want the %d cold fills only", s.Misses(), cells)
	}
}

// TestCacheKeyMemoFollowsTheMemoryTier: Cell hashes a spec once while its cell
// is in memory, under the same key Key gives, and the memo never outlives
// the entries it points at.
func TestCacheKeyMemoFollowsTheMemoryTier(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	row := countedRow{"a", 1, 2}
	for i := 0; i < 8; i++ {
		mustCell(t, s, rowSpec{"memo", int64(i)}, true, row)
	}
	if len(s.keys) != 8 || s.Len() != 8 {
		t.Fatalf("%d memoized keys for %d entries, want 8 and 8", len(s.keys), s.Len())
	}
	for id, key := range s.keys {
		if want := Key(id.spec, id.version); key != want {
			t.Errorf("memoized key for %+v = %s, want %s", id.spec, key, want)
		}
	}
	// The same spec under another code version is another cell.
	if _, computed, _ := Cell(s, rowSpec{"memo", 0}, "v2", func() (*countedRow, error) { return &row, nil }); !computed {
		t.Error("a new code version was answered from the old version's cell")
	}

	// A second spec type with the same encoding shares the entry; the entry
	// keeps one memo slot.
	type alias struct {
		Family  string `json:"family"`
		Seed    int64  `json:"seed"`
		Workers int    `json:"-"`
	}
	mustCell(t, s, alias{"memo", 3, 4}, false, countedRow{})
	if len(s.keys) != s.Len() {
		t.Errorf("%d memoized keys for %d entries after an aliasing spec", len(s.keys), s.Len())
	}

	// Specs that cannot be map keys resolve all the same, unmemoized.
	before := len(s.keys)
	sliceSpec := struct {
		Axis []int `json:"axis"`
	}{[]int{1, 2}}
	mustCell(t, s, sliceSpec, true, row)
	mustCell(t, s, sliceSpec, false, countedRow{})
	mustCell(t, s, map[string]int{"a": 1}, true, row)
	if len(s.keys) != before {
		t.Errorf("an unhashable spec added %d memo slots", len(s.keys)-before)
	}

	s.SetMemLimit(0)
	if len(s.keys) != 0 || s.Len() != 0 {
		t.Errorf("after evicting everything: %d memoized keys, %d entries", len(s.keys), s.Len())
	}
	mustCell(t, s, rowSpec{"memo", 5}, false, countedRow{}) // disk, memory tier off
	if len(s.keys) != 0 {
		t.Errorf("%d memoized keys with no memory tier", len(s.keys))
	}
}

// runSpec stands in for experiment's run key.
type runSpec struct {
	Runner string `json:"runner"`
	Seed   int64  `json:"seed"`
}

// TestRunKindApartFromCells: a run entry shares the LRU and the directory
// with the cells but never their counters — Hits, Misses and Len stay
// about cells — and is found again from memory and from a fresh store,
// under its own spec and code version only.
func TestRunKindApartFromCells(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := runSpec{"fig4", 1}
	if _, ok := s.GetRun(spec, "v1"); ok {
		t.Fatal("empty store returned a run")
	}
	if err := s.PutRun(spec, "v1", []byte("tables\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", []byte("row")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetRun(spec, "v1"); !ok || string(got) != "tables\n" {
		t.Fatalf("GetRun = %q, %v", got, ok)
	}
	for name, miss := range map[string]struct {
		spec    any
		version string
	}{
		"seed":         {runSpec{"fig4", 2}, "v1"},
		"runner":       {runSpec{"fig6", 1}, "v1"},
		"code version": {spec, "v2"},
	} {
		if _, ok := s.GetRun(miss.spec, miss.version); ok {
			t.Errorf("a run with another %s hit", name)
		}
	}
	if got := s.Runs(); got != (RunStats{Hits: 1, Misses: 4, Held: 1}) {
		t.Errorf("Runs() = %+v, want 1 hit, 4 misses, 1 held", got)
	}
	if s.Hits() != 0 || s.Misses() != 0 || s.Len() != 1 {
		t.Errorf("cell counters moved: hits=%d misses=%d len=%d, want 0, 0, 1", s.Hits(), s.Misses(), s.Len())
	}
	s.ResetStats()
	if got := s.Runs(); got.Hits != 0 || got.Misses != 0 {
		t.Errorf("ResetStats left run counters %+v", got)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetRun(spec, "v1"); !ok || string(got) != "tables\n" {
		t.Fatalf("reopened GetRun = %q, %v", got, ok)
	}
	if got := s2.Runs(); got != (RunStats{Hits: 1, Held: 1}) || s2.Len() != 0 {
		t.Errorf("reopened: Runs() = %+v, Len() = %d", got, s2.Len())
	}
	s2.SetMemLimit(0)
	if got := s2.Runs(); got.Held != 0 {
		t.Errorf("%d run entries held past a zero budget", got.Held)
	}
}

// TestRunFileFraming: a run file that is truncated, empty, foreign (a
// cell's JSON), copied from another key or flipped in one byte is a miss,
// and the next PutRun rewrites it.
func TestRunFileFraming(t *testing.T) {
	dir := t.TempDir()
	spec, other := runSpec{"fig4", 1}, runSpec{"fig4", 2}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(spec, "v1", []byte("tables\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(other, "v1", []byte("other\n")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Key(spec, "v1")+".run")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherFile, err := os.ReadFile(filepath.Join(dir, Key(other, "v1")+".run"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	for name, content := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"header":    good[:frameHeader-1],
		"empty":     {},
		"foreign":   []byte(`{"goodput":1}`),
		"other key": otherFile,
		"flipped":   flipped,
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := fresh.GetRun(spec, "v1"); ok {
			t.Errorf("%s run file: hit %q", name, got)
		}
		if err := fresh.PutRun(spec, "v1", []byte("tables\n")); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
			t.Errorf("%s run file not rewritten: %q, %v", name, got, err)
		}
	}
}

// TestCellFileFraming: a cell file that is torn, truncated, empty,
// foreign (bare JSON, or a run file), copied from another key or has one
// digit of a number flipped is a miss — the flipped digit still decodes,
// so only the checksum can tell — and the next Cell rewrites it.
func TestCellFileFraming(t *testing.T) {
	dir := t.TempDir()
	spec, other := rowSpec{"framed", 1}, rowSpec{"framed", 2}
	want := countedRow{"a", 1234, 0.5}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCell(t, s, spec, true, want)
	mustCell(t, s, other, true, countedRow{"b", 5, 6})
	if err := s.PutRun(runSpec{"fig4", 1}, "v1", []byte(`{"name":"a","n":1234,"f":0.5}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Key(spec, "v1")+".cell")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	flipped := bytes.Replace(good, []byte("1234"), []byte("1235"), 1)
	if bytes.Equal(flipped, good) {
		t.Fatalf("no digit to flip in %q", good)
	}
	for name, content := range map[string][]byte{
		"torn":      good[:len(good)/2],
		"truncated": good[:len(good)-1],
		"header":    good[:frameHeader-1],
		"empty":     {},
		"bare json": good[frameHeader:],
		"run file":  read(Key(runSpec{"fig4", 1}, "v1") + ".run"),
		"other key": read(Key(other, "v1") + ".cell"),
		"flipped":   flipped,
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := fresh.Get(Key(spec, "v1")); ok {
			t.Errorf("%s cell file: hit %q", name, got)
		}
		if got := mustCell(t, fresh, spec, true, want); *got != want {
			t.Errorf("%s cell file: recomputed %+v, want %+v", name, *got, want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
			t.Errorf("%s cell file not rewritten: %q, %v", name, got, err)
		}
	}
}

// TestTwoProcessesShareADirectory: two processes on one directory — as
// trimsim -cache beside trimsvc, or two service jobs sharing a cell — put
// and get the same keys over and over. No put fails, every read from disk
// is the payload its key was put with, and no temp file is left behind.
func TestTwoProcessesShareADirectory(t *testing.T) {
	if dir := os.Getenv("CELLCACHE_SHARED_DIR"); dir != "" {
		putAndGetShared(t, dir)
		return
	}
	dir := t.TempDir()
	procs := make([]*exec.Cmd, 2)
	outs := make([]bytes.Buffer, len(procs))
	for i := range procs {
		procs[i] = exec.Command(os.Args[0], "-test.run=^TestTwoProcessesShareADirectory$")
		procs[i].Env = append(os.Environ(), "CELLCACHE_SHARED_DIR="+dir)
		procs[i].Stdout, procs[i].Stderr = &outs[i], &outs[i]
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Errorf("process %d: %v\n%s", i, err, outs[i].Bytes())
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// putAndGetShared is one process of TestTwoProcessesShareADirectory.
func putAndGetShared(t *testing.T, dir string) {
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetMemLimit(0) // every Get reads the file
	for round := 0; round < 100; round++ {
		for k := 0; k < 8; k++ {
			key := Key(rowSpec{"shared", int64(k)}, "v1")
			payload := bytes.Repeat([]byte{byte('a' + k)}, 64<<10)
			if err := w.Put(key, payload); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if got, ok := r.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("round %d key %d: hit=%v, %d bytes, want the %d bytes put", round, k, ok, len(got), len(payload))
			}
		}
	}
}

// TestFailedPutReadsAsMiss: a put whose file cannot be written — here a
// directory stands at the entry's path, which fails the rename even for
// root, as a full disk fails the write — returns an error and leaves no
// temp file, and a later process finds a miss and recomputes: never a
// torn hit, never a panic.
func TestFailedPutReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	spec, want := rowSpec{"blocked", 1}, countedRow{"a", 1, 2}
	key := Key(spec, "v1")
	blocker := filepath.Join(dir, key+".cell")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte(`{"name":"a","n":1,"f":2}`)); err == nil {
		t.Fatal("Put over a directory reported no error")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("failed put left temp files: %v", tmps)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.Get(key); ok {
		t.Errorf("failed put read back as a hit: %q", got)
	}
	if _, computed, err := Cell(fresh, spec, "v1", func() (*countedRow, error) { v := want; return &v, nil }); !computed || err == nil {
		t.Errorf("Cell over the failed entry: computed=%v err=%v, want a recompute whose put fails", computed, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if fresh, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := mustCell(t, fresh, spec, true, want); *got != want {
		t.Errorf("recomputed %+v, want %+v", *got, want)
	}
}
