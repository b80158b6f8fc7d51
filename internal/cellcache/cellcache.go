// Package cellcache is the content-addressed memoization store for
// individual experiment cells. A sweep runner decomposes its matrix into
// machine-independent cell specs (runner family, cell coordinates, the
// cell's SplitSeed-derived seed); each cell's result is keyed by a
// SHA-256 over the canonical spec and the code version and stored as the
// result struct's JSON encoding.
//
// The cache is sound because the simulator underneath is deterministic: a
// cell is a pure function of its spec — worker count and Progress hooks
// never change results, so neither appears in the key. Go's JSON encoding
// round-trips float64 and int64 values exactly (shortest-representation
// floats, full-precision integers), so a row decoded from the cache
// renders byte-identically to one just computed.
//
// Beside cells the store keeps whole runs' rendered output (GetRun), in
// the same LRU and directory under the same key function; Hits/Misses
// count cells only. The store backs both trimsim -cache and trimsvc: a
// run or a cell either one computed is a hit for the other.
package cellcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Key returns the content address of one cell result: a hex SHA-256 over
// the canonical cell spec (its JSON encoding — struct order, zero values
// omitted where tagged) and the code version. Any code change rolls the
// version and so invalidates every cached cell.
func Key(spec any, codeVersion string) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Cell specs are structs of scalars and strings; failing to
		// marshal one is a programming error, not a runtime condition.
		panic(fmt.Sprintf("cellcache: unmarshalable cell spec %T: %v", spec, err))
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte{0})
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// CodeVersion identifies the running simulator build for cache keying:
// the VCS revision stamped into the binary (plus a dirty marker for
// modified trees), or "dev" when no build info is embedded (go test,
// unstamped `go build` / `go run` trees). "dev" results are still sound
// within one process — an in-memory store dies with it — but a
// persistent cache directory shared across differing "dev" builds would
// be unsound; see ValidatePersistent.
func CodeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	return rev + modified
}

// ValidatePersistent is the refusal rule both trimsim -cache and trimsvc
// -cache share: a persistent cache directory needs a stamped, clean code
// version, because two different "dev" (or dirty) builds writing the
// same key could disagree about its value. force overrides the refusal
// for users who know their tree is stable (iterating on experiment
// parameters without touching simulator code).
func ValidatePersistent(codeVersion string, force bool) error {
	if force {
		return nil
	}
	if codeVersion == "dev" {
		return fmt.Errorf("cellcache: this build has no stamped VCS revision (built from " +
			"an unpacked tree or via go run/go test), so a persistent cache directory " +
			"cannot be validated against the code that fills it; commit and rebuild, " +
			"or force with -cache-force if the tree is stable")
	}
	if strings.HasSuffix(codeVersion, "+dirty") {
		return fmt.Errorf("cellcache: this build came from a modified tree (%s) — every "+
			"dirty build at this revision shares that version string regardless of what "+
			"was modified, so a persistent cache directory cannot tell their results "+
			"apart; commit and rebuild, or force with -cache-force if the tree is stable",
			codeVersion)
	}
	return nil
}

// DefaultMemLimit bounds the in-memory tier of a store: beyond it the
// least recently used payloads are evicted (they remain on disk when the
// store is persistent). It counts payload bytes only: the decoded row an
// entry may carry (see Cell) is no larger and leaves with it. Cell payloads
// are small JSON rows — a few hundred bytes to a few hundred KB for
// series-bearing results — and a run's output is its printed tables, so
// the default holds every sweep in the repo.
const DefaultMemLimit = 64 << 20

// Store is a two-tier content-addressed store: an in-memory LRU over
// cell JSON payloads and run outputs, optionally backed by a directory
// where every payload is written as it arrives (named by its key, framed
// with a checksum, atomically renamed into place, so a crash never leaves
// a torn result and a damaged file is never served).
// All methods are safe for concurrent use — sweep cells resolve from
// parallel trial workers.
type Store struct {
	mu      sync.Mutex
	dir     string // "" = memory only
	memCap  int64
	memUsed int64
	lru     *list.List // front = most recently used
	mem     map[string]*list.Element
	// keys remembers Key for the specs Cell and the run kind resolved: a
	// warm entry is hashed once, not per hit. Each slot is evicted with the
	// entry it names.
	keys map[specID]string
	runs int // run entries among mem

	hits, misses       atomic.Int64
	runHits, runMisses atomic.Int64
}

// lruEntry is one in-memory payload and, once Cell has seen it, the row it
// decodes to: a T held by value, nil while undecoded and for row types
// that assignment does not deep-copy.
type lruEntry struct {
	key     string
	payload []byte
	value   any
	id      specID // its slot in Store.keys; zero = none
	run     bool   // a whole run's output, not a cell
}

// specID is a comparable cell spec with its code version, as a map key.
type specID struct {
	spec    any
	version string
}

// Open returns a store persisting under dir; dir == "" keeps results in
// memory only.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, memCap: DefaultMemLimit,
		lru: list.New(), mem: map[string]*list.Element{}, keys: map[specID]string{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: cache dir: %w", err)
	}
	return s, nil
}

// NewMemory returns a memory-only store (a persistent store with no
// directory).
func NewMemory() *Store {
	s, _ := Open("")
	return s
}

// SetMemLimit adjusts the in-memory tier's byte budget (0 or negative
// disables in-memory retention entirely; disk-backed stores then read
// every hit from disk).
func (s *Store) SetMemLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memCap = bytes
	s.evictLocked()
}

// Dir returns the persistence directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// path is the on-disk location of one entry: ext is ".cell" or ".run".
func (s *Store) path(key, ext string) string {
	return filepath.Join(s.dir, key+ext)
}

// Get returns the payload cached under key, if any, and counts the
// lookup as a hit or a miss. Callers must not mutate the returned slice.
func (s *Store) Get(key string) ([]byte, bool) {
	payload, _, ok := s.get(key, specID{}, false)
	return payload, ok
}

// get looks key up as a cell or, with run set, as a whole run: in memory,
// else on disk, counting the lookup against that kind. It is Get plus the
// decoded row riding in the memory entry, if any; id is the memo slot a
// disk hit takes.
func (s *Store) get(key string, id specID, run bool) ([]byte, any, bool) {
	hits, misses := &s.hits, &s.misses
	if run {
		hits, misses = &s.runHits, &s.runMisses
	}
	s.mu.Lock()
	if el, ok := s.mem[key]; ok && el.Value.(*lruEntry).run == run {
		s.lru.MoveToFront(el)
		e := el.Value.(*lruEntry)
		payload, value := e.payload, e.value
		s.mu.Unlock()
		hits.Add(1)
		return payload, value, true
	}
	s.mu.Unlock()
	if payload, ok := s.read(key, run); ok {
		s.mu.Lock()
		s.insertLocked(key, payload, nil, id, run)
		s.mu.Unlock()
		hits.Add(1)
		return payload, nil, true
	}
	misses.Add(1)
	return nil, nil, false
}

// read returns an entry's payload from disk, only when the file's frame
// matches its kind, its key and its contents.
func (s *Store) read(key string, run bool) ([]byte, bool) {
	if s.dir == "" {
		return nil, false
	}
	ext, magic := kind(run)
	b, _ := os.ReadFile(s.path(key, ext))
	if len(b) < frameHeader || !bytes.Equal(b[:frameHeader], frame(magic, key, b[frameHeader:])) {
		return nil, false
	}
	return b[frameHeader:], true
}

// Put stores a payload under key: into the memory tier, and — for
// persistent stores — onto disk immediately (a temp file of its own
// renamed into place, so concurrent readers never observe a torn write
// and concurrent writers never share one).
func (s *Store) Put(key string, payload []byte) error {
	return s.put(key, payload, nil, specID{}, false)
}

// put is Put plus the row the payload decodes to, the spec it answers and
// its kind: a cell goes to disk as <key>.cell, a run as <key>.run, each
// framed.
func (s *Store) put(key string, payload []byte, value any, id specID, run bool) error {
	s.mu.Lock()
	s.insertLocked(key, payload, value, id, run)
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	ext, magic := kind(run)
	if err := writeFile(s.path(key, ext), frame(magic, key, payload), payload); err != nil {
		return fmt.Errorf("cellcache: write: %w", err)
	}
	return nil
}

// writeFile puts head and body at path through a temp file of its own in
// the same directory, renamed into place: writers of one key in several
// goroutines or processes never share a temp file, and a failed write
// leaves none behind.
func writeFile(path string, head, body []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(head)
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // the write error is the one to report
	}
	return err
}

// insertLocked adds or refreshes a memory-tier entry and evicts down to
// the budget. Caller holds s.mu.
func (s *Store) insertLocked(key string, payload []byte, value any, id specID, run bool) {
	el, ok := s.mem[key]
	if !ok {
		el = s.lru.PushFront(&lruEntry{key: key})
		s.mem[key] = el
	}
	e := el.Value.(*lruEntry)
	s.memUsed += int64(len(payload)) - int64(len(e.payload))
	if run && !e.run {
		s.runs++
	} else if e.run && !run {
		s.runs--
	}
	e.payload, e.value, e.run = payload, value, run
	s.lru.MoveToFront(el)
	if id.spec != nil && id != e.id {
		delete(s.keys, e.id) // two specs with one encoding: the entry keeps the latest
		e.id, s.keys[id] = id, key
	}
	s.evictLocked()
}

// evictLocked drops least recently used entries until the memory tier
// fits its budget. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.memUsed > s.memCap {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.mem, e.key)
		delete(s.keys, e.id)
		s.memUsed -= int64(len(e.payload))
		if e.run {
			s.runs--
		}
	}
}

// Len reports how many cell payloads the memory tier currently holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) - s.runs
}

// Hits returns how many Gets found a payload. On a warm sweep re-run
// this equals the number of cells reassembled from cache. Run lookups
// are not counted (see Runs).
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns how many Gets came up empty. On a warm sweep re-run
// this equals the number of cells that actually simulated — the
// only-changed-cells assertions in the tests and /v1/stats both read it.
func (s *Store) Misses() int64 { return s.misses.Load() }

// ResetStats zeroes the hit/miss counters of both kinds (payloads are
// kept).
func (s *Store) ResetStats() {
	s.hits.Store(0)
	s.misses.Store(0)
	s.runHits.Store(0)
	s.runMisses.Store(0)
}

// RunStats counts the run kind apart from the cells: GetRun lookups that
// found an entry and that found none, and run entries in the memory tier.
type RunStats struct {
	Hits, Misses int64
	Held         int
}

// Runs returns the run kind's counters.
func (s *Store) Runs() RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RunStats{s.runHits.Load(), s.runMisses.Load(), s.runs}
}

// An entry file is frame(magic, key, payload) followed by payload: a magic
// naming the kind, the payload's length and a CRC-32C over key and
// payload, so a torn, truncated, renamed, foreign or bit-flipped file
// reads as a miss, and the next store of that entry rewrites it.
const (
	cellMagic   = "TCEL"
	runMagic    = "TRUN"
	frameHeader = 4 + 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kind returns the file extension and magic of a cell or, with run set, a
// run.
func kind(run bool) (ext, magic string) {
	if run {
		return ".run", runMagic
	}
	return ".cell", cellMagic
}

func frame(magic, key string, payload []byte) []byte {
	h := binary.LittleEndian.AppendUint64([]byte(magic), uint64(len(payload)))
	sum := crc32.Update(crc32.Checksum([]byte(key), castagnoli), castagnoli, payload)
	return binary.LittleEndian.AppendUint32(h, sum)
}

// GetRun returns the output stored for a whole run — spec names the
// runner and its options — if any. A memory-tier hit hands out the
// stored slice itself: callers must not modify it.
func (s *Store) GetRun(spec any, codeVersion string) ([]byte, bool) {
	key, id := s.key(spec, codeVersion)
	output, _, ok := s.get(key, id, true)
	return output, ok
}

// PutRun stores a whole run's output under its spec: into the memory
// tier, and for persistent stores into a framed <key>.run file. The store
// keeps output; callers must not modify it afterwards.
func (s *Store) PutRun(spec any, codeVersion string, output []byte) error {
	key, id := s.key(spec, codeVersion)
	return s.put(key, output, nil, id, true)
}

// key returns Key(spec, codeVersion), from the memo when the spec was
// resolved before, and the memo slot a comparable spec takes.
func (s *Store) key(spec any, codeVersion string) (string, specID) {
	var id specID
	if t := reflect.TypeOf(spec); t != nil && t.Comparable() {
		id = specID{spec, codeVersion}
	}
	s.mu.Lock()
	key, ok := s.keys[id]
	s.mu.Unlock()
	if !ok {
		key = Key(spec, codeVersion)
	}
	return key, id
}

// Cell resolves one cell through the store: a hit returns the cached row
// as a fresh *T, a miss runs compute and stores its result under
// Key(spec, codeVersion). The bool reports whether the cell was computed.
//
// A memory-tier hit neither hashes nor decodes: the entry keeps the row
// next to its JSON payload (from compute, or from the first decode after a
// disk read) and the hit is a value copy of it. That is a deep copy only
// for a T without pointers, slices, maps or interfaces, so the type
// decides: any other T is decoded from the payload on every hit, and no
// two callers ever share mutable state.
func Cell[T any](s *Store, spec any, codeVersion string, compute func() (*T, error)) (*T, bool, error) {
	key, id := s.key(spec, codeVersion)
	if payload, value, ok := s.get(key, id, false); ok {
		out := new(T)
		if row, ok := value.(T); ok {
			*out = row
			return out, false, nil
		}
		if json.Unmarshal(payload, out) == nil {
			if row := shareable(out); row != nil {
				s.mu.Lock()
				s.insertLocked(key, payload, row, id, false)
				s.mu.Unlock()
			}
			return out, false, nil
		}
		// A payload that does not decode into T (an intact file of another
		// row type) is treated as a miss: recompute and overwrite it below.
	}
	out, err := compute()
	if err != nil {
		return nil, true, err
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return nil, true, err
	}
	if err := s.put(key, payload, shareable(out), id, false); err != nil {
		return nil, true, err
	}
	return out, true, nil
}

// shareable is the row an entry may keep: *out, or nil when assigning a T
// is not a deep copy.
func shareable[T any](out *T) any {
	if pointerFree(reflect.TypeFor[T]()) {
		return *out
	}
	return nil
}

// pointerFree reports whether assigning a t copies everything reachable
// from it (strings are immutable, so sharing their bytes is safe).
func pointerFree(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128, k == reflect.String:
		return true
	case k == reflect.Array:
		return pointerFree(t.Elem())
	case k == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
