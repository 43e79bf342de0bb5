// Package store persists completed harness results on disk,
// content-addressed by their spec's canonical key (harness.Key, the
// SHA-256 of the spec's canonical JSON encoding). It is the L2 behind
// the sgxgauged daemon's in-memory LRU: a restarted daemon — or a
// cold node joining a sweep cluster — warms from disk instead of
// re-simulating.
//
// Layout: one file per key under a two-hex-digit fan-out directory,
//
//	<dir>/ab/abcdef….json
//
// mirroring git's object store so no single directory grows
// unboundedly. Writes go through WriteFile, the durable-file code this
// package shares with the job journal: a temp file in the entry's
// directory lands by atomic rename, so readers never observe a
// half-written entry and concurrent writers of the same key are
// harmless (the encoding is canonical, so both rename identical bytes
// into place).
// An entry that fails to decode — truncated by a crash, edited by
// hand, or written by a build with a different counter schema — is
// quarantined under <dir>/quarantine/ and reported as a miss, never a
// panic: the result is re-simulated and re-written.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"sgxgauge/internal/harness"
)

// Options configures a Store.
type Options struct {
	// Fsync forces every put to sync the entry file (and its
	// directory) before the put is considered durable. Off by default:
	// the store is a cache of reproducible computations, so losing the
	// last few entries to a host crash only costs re-simulation.
	Fsync bool
}

// Store is the on-disk result store. It implements
// harness.ResultCache, so it plugs directly into a Runner — alone or
// as the L2 of a Tiered cache. All methods are safe for concurrent
// use; cross-process sharing of one directory is likewise safe for
// writers (atomic same-content renames) and readers.
type Store struct {
	dir   string
	fsync bool

	hits        atomic.Uint64
	misses      atomic.Uint64
	puts        atomic.Uint64
	putErrors   atomic.Uint64
	quarantined atomic.Uint64
}

// envelope is the on-disk file schema: a format version, the entry's
// own key (so a file renamed onto the wrong key is detected as
// corruption rather than served), and the canonical result encoding.
type envelope struct {
	Format int                `json:"format"`
	Key    string             `json:"key"`
	Result harness.ResultWire `json:"result"`
}

// formatVersion identifies the envelope schema; bump it when the
// layout changes incompatibly. Entries with a different version are
// quarantined like any other undecodable file.
const formatVersion = 1

// Open opens (creating if needed) the store rooted at dir and checks
// that its fan-out directories can be read.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fsync: opts.Fsync}
	if _, err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// scan counts entry files under the fan-out directories.
func (s *Store) scan() (int, error) {
	fanouts, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, fan := range fanouts {
		if !fan.IsDir() || fan.Name() == QuarantineDir {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				n++
			}
		}
	}
	return n, nil
}

// path returns the entry file for key; its parent directory may not
// exist yet.
func (s *Store) path(k harness.Key) string {
	hex := k.String()
	return filepath.Join(s.dir, hex[:2], hex+".json")
}

// Get loads the result stored under key. A missing entry is a plain
// miss; an unreadable or undecodable one is quarantined and reported
// as a miss.
func (s *Store) Get(k harness.Key) (*harness.Result, bool) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	res, err := decodeEntry(k, data)
	if err != nil {
		Quarantine(s.dir, path)
		s.quarantined.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return res, true
}

// decodeEntry strictly decodes one entry file and checks it actually
// holds key's result.
func decodeEntry(k harness.Key, data []byte) (*harness.Result, error) {
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("store: decoding entry: %w", err)
	}
	if env.Format != formatVersion {
		return nil, fmt.Errorf("store: entry format %d, want %d", env.Format, formatVersion)
	}
	if env.Key != k.String() {
		return nil, fmt.Errorf("store: entry holds key %s, filed under %s", env.Key, k)
	}
	return env.Result.Result()
}

// Put durably stores res under key. Failed results are not stored
// (matching the in-memory caches: a retry must re-run them), and an
// existing entry is left untouched — the encoding is canonical, so
// rewriting it could only produce the same bytes.
func (s *Store) Put(k harness.Key, res *harness.Result) error {
	if res == nil || res.Err != nil {
		return nil
	}
	path := s.path(k)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	env := envelope{Format: formatVersion, Key: k.String(), Result: res.Wire()}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := WriteFile(path, append(data, '\n'), s.fsync); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Add implements harness.ResultCache. A ResultCache add cannot fail,
// so a put error is swallowed into the put-error counter (the entry
// is simply not persisted; the in-memory layer above still has it)
// and res itself is returned as the canonical pointer.
func (s *Store) Add(k harness.Key, res *harness.Result) *harness.Result {
	if err := s.Put(k, res); err != nil {
		s.putErrors.Add(1)
	}
	return res
}

// Len reports the number of entry files on disk, counted afresh on
// every call, so it stays exact when puts of one key race or another
// Store on the same directory writes or quarantines entries. It
// reports 0 when the directory cannot be read.
func (s *Store) Len() int {
	n, err := s.scan()
	if err != nil {
		return 0
	}
	return n
}

// Stats returns the store's lifetime counters for /metrics.
func (s *Store) Stats() (hits, misses, puts, putErrors, quarantined uint64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load(), s.putErrors.Load(), s.quarantined.Load()
}
