package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// testResult runs one real spec so the persisted payload exercises
// every Result field the engine actually produces. The run is
// memoized: results are immutable, so the tests can share one.
var testResultOnce struct {
	sync.Once
	key harness.Key
	res *harness.Result
	err error
}

func testResult(t testing.TB) (harness.Key, *harness.Result) {
	t.Helper()
	o := &testResultOnce
	o.Do(func() {
		r := harness.NewRunner(256)
		r.Seed = 7
		spec := harness.Spec{Workload: suite.Empty(), Mode: sgx.LibOS, Size: workloads.Low}
		res := r.Run(spec)
		if res.Err != nil {
			o.err = res.Err
			return
		}
		o.res = res
		o.key, o.err = r.Key(spec)
	})
	if o.err != nil {
		t.Fatalf("shared test run: %v", o.err)
	}
	return o.key, o.res
}

// TestPutGetRoundTrip: a stored result comes back equal to its
// canonical encoding, and the entry survives in a fresh Store opened
// over the same directory (the restart-warm path).
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t)

	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	back, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	wantEnc, _ := harness.EncodeResult(res)
	gotEnc, _ := harness.EncodeResult(back)
	if string(wantEnc) != string(gotEnc) {
		t.Fatalf("round-trip changed the canonical encoding:\n got %s\nwant %s", gotEnc, wantEnc)
	}

	// Restart: a new Store over the same directory serves the entry
	// without any put, and its scan counts it.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	warm, ok := s2.Get(key)
	if !ok {
		t.Fatal("reopened store lost the entry")
	}
	if warmEnc, _ := harness.EncodeResult(warm); string(warmEnc) != string(wantEnc) {
		t.Fatal("reopened store returned a different result")
	}
}

// TestFailedResultsNotStored: results carrying a spec failure are
// never persisted — a retry must re-run them, exactly as with the
// in-memory caches.
func TestFailedResultsNotStored(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := testResult(t)
	bad := &harness.Result{Name: "X", Err: errors.New("boom")}
	if err := s.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed result was stored (Len = %d)", s.Len())
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed result served from store")
	}
}

// TestCorruptEntryQuarantined: an entry that no longer decodes is
// moved to quarantine/ and reported as a miss — and the miss is
// repairable by a fresh Put.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt []byte
	}{
		{"truncated", []byte(`{"format":1,"key":"`)},
		{"wrong-key", mustEntryBytes(t, key, res, zeroKey)},
		{"wrong-format", []byte(`{"format":99,"key":"` + key.String() + `","result":{}}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := s.path(key)
			if err := os.WriteFile(path, c.corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry still in place after Get")
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", key.String()+".json")); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}
			// The store heals: re-putting the result works again.
			if err := s.Put(key, res); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); !ok {
				t.Fatal("re-put after quarantine did not restore the entry")
			}
		})
	}
	_, _, _, _, quarantined := s.Stats()
	if quarantined != uint64(len(cases)) {
		t.Fatalf("quarantined = %d, want %d", quarantined, len(cases))
	}
}

// zeroKey is a well-formed key that no spec hashes to.
const zeroKey = "0000000000000000000000000000000000000000000000000000000000000000"

// mustEntryBytes builds a well-formed entry file for res whose inner
// key field reads innerKey, whatever key it will be filed under.
func mustEntryBytes(t testing.TB, key harness.Key, res *harness.Result, innerKey string) []byte {
	t.Helper()
	tmp := t.TempDir()
	aside, err := Open(tmp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aside.Put(key, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(aside.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(strings.Replace(string(data), key.String(), innerKey, 1))
}

// TestConcurrentPutSameKey: racing writers of one key all succeed,
// exactly one entry results, and it decodes cleanly (atomic renames,
// no interleaved bytes).
func TestConcurrentPutSameKey(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t)
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(key, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	back, ok := s.Get(key)
	if !ok {
		t.Fatal("entry missing after concurrent puts")
	}
	wantEnc, _ := harness.EncodeResult(res)
	if gotEnc, _ := harness.EncodeResult(back); string(gotEnc) != string(wantEnc) {
		t.Fatal("entry corrupted by concurrent puts")
	}
	// Reopening counts exactly one resident entry regardless of how
	// the racing puts interleaved.
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("resident entries = %d, want 1", s2.Len())
	}
}

// TestTiered: L2 hits promote into L1, adds write through, and a
// fresh L1 over a warm L2 (the restart) still hits.
func TestTiered(t *testing.T) {
	dir := t.TempDir()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1 := newMapCache()
	tc := NewTiered(l1, l2)
	key, res := testResult(t)

	if _, ok := tc.Get(key); ok {
		t.Fatal("empty tiered cache reported a hit")
	}
	canon := tc.Add(key, res)
	if canon != res {
		t.Fatal("first add did not return the inserted pointer")
	}
	if _, ok := l1.Get(key); !ok {
		t.Fatal("add did not populate L1")
	}
	if _, ok := l2.Get(key); !ok {
		t.Fatal("add did not write through to L2")
	}

	// Restart: fresh L1, same L2 directory.
	l2b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshL1 := newMapCache()
	tc2 := NewTiered(freshL1, l2b)
	warm, ok := tc2.Get(key)
	if !ok {
		t.Fatal("tiered cache over a warm L2 missed")
	}
	if _, ok := freshL1.Get(key); !ok {
		t.Fatal("L2 hit was not promoted into L1")
	}
	// The promoted entry is the canonical pointer for later adds.
	if got := tc2.Add(key, res); got != warm {
		t.Fatal("add after promotion returned a non-canonical pointer")
	}
	if tc2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tc2.Len())
	}
}

// mapCache is a minimal in-memory ResultCache for tiered tests.
type mapCache struct {
	mu sync.Mutex
	m  map[harness.Key]*harness.Result
}

func newMapCache() *mapCache { return &mapCache{m: map[harness.Key]*harness.Result{}} }

func (c *mapCache) Get(k harness.Key) (*harness.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[k]
	return res, ok
}

func (c *mapCache) Add(k harness.Key, res *harness.Result) *harness.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	c.m[k] = res
	return res
}

func (c *mapCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// TestRunnerWarmFromStore is the acceptance path: a Runner whose
// cache is Tiered(L1, Store) computes a spec once; a second Runner —
// fresh process state, same store directory — serves the same spec
// from disk without re-simulating, byte-identically.
func TestRunnerWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := harness.Spec{Workload: suite.Empty(), Mode: sgx.LibOS, Size: workloads.Low}

	// Progress events fire only for specs the engine actually
	// executes — cache hits complete without one — so the count is the
	// number of simulations.
	run := func() ([]byte, int) {
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := harness.NewRunner(256)
		r.Seed = 7
		r.Cache = NewTiered(newMapCache(), l2)
		simulated := 0
		r.Progress = func(harness.Progress) { simulated++ }
		res := r.Run(spec)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		enc, err := harness.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return enc, simulated
	}

	first, firstRuns := run()
	if firstRuns != 1 {
		t.Fatalf("first run simulated %d specs, want 1", firstRuns)
	}
	second, secondRuns := run()
	if secondRuns != 0 {
		t.Fatalf("second run simulated %d specs, want 0 (warm from store)", secondRuns)
	}
	if string(first) != string(second) {
		t.Fatalf("warm result differs from computed result:\n %s\n %s", first, second)
	}
}

// TestOpenSkipsLeftoverTempFiles: a crash between a put's create and
// its rename leaves a temp file beside the entries, possibly holding a
// whole entry. Open's scan does not count it, under this build's temp
// name or the "put-*.tmp" name earlier builds used.
func TestOpenSkipsLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	// One leftover beside the entry, one in a fan-out of its own.
	for _, fan := range []string{filepath.Dir(s.path(key)), filepath.Join(dir, "ff")} {
		for _, pattern := range []string{tempPattern, "put-*.tmp"} {
			if err := os.MkdirAll(fan, 0o755); err != nil {
				t.Fatal(err)
			}
			tmp, err := os.CreateTemp(fan, pattern)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tmp.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := tmp.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d after reopening over leftover temp files, want 1", s2.Len())
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("entry beside a leftover temp file not served")
	}
}

// TestWriteFileRenameFailure: when the final rename fails (the target
// is a directory), WriteFile returns the error and leaves no temp file
// behind, with or without fsync.
func TestWriteFileRenameFailure(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		dir := t.TempDir()
		target := filepath.Join(dir, "entry.json")
		if err := os.Mkdir(target, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(target, []byte("{}\n"), fsync); err == nil {
			t.Fatalf("fsync=%v: WriteFile onto a directory succeeded", fsync)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "entry.json" {
			t.Fatalf("fsync=%v: directory holds %v after the failed write, want only entry.json", fsync, entries)
		}
	}
}

// FuzzStoreEntry: whatever bytes sit in a key's entry file, Get either
// serves a result whose envelope names that key, leaving the file in
// place, or quarantines the file and reports a miss. It never panics.
func FuzzStoreEntry(f *testing.F) {
	key, res := testResult(f)
	valid := mustEntryBytes(f, key, res, key.String())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(mustEntryBytes(f, key, res, zeroKey))
	f.Add([]byte(`{"format":99,"key":"` + key.String() + `","result":{}}`))
	f.Add([]byte(`{"format":1,"key":"` + key.String() + `","result":{"counters":{"NoSuchCounter":1}}}`))
	f.Add([]byte{})
	// One directory serves every input: each starts from a fresh entry
	// file and an empty quarantine.
	dir := f.TempDir()
	path := filepath.Join(dir, key.String()[:2], key.String()+".json")
	quarantined := filepath.Join(dir, QuarantineDir, key.String()+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.Remove(quarantined); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if ok {
			var env struct{ Key string }
			if got == nil || json.NewDecoder(bytes.NewReader(data)).Decode(&env) != nil || env.Key != key.String() {
				t.Fatalf("Get served %q as the entry for %s", data, key)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("served entry no longer in place: %v", err)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("undecodable entry %q left in place", data)
		}
		if _, err := os.Stat(quarantined); err != nil {
			t.Fatalf("undecodable entry not quarantined: %v", err)
		}
		if s.Len() != 0 {
			t.Fatalf("Len = %d after quarantining the only entry, want 0", s.Len())
		}
	})
}
