package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

func testSpecWire(t *testing.T, seed int64) harness.SpecWire {
	t.Helper()
	w, err := harness.Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: 1024, Seed: seed}.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	return w
}

func testKey(t *testing.T, seed int64) string {
	t.Helper()
	k, err := harness.SpecKey(harness.Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: 1024, Seed: seed})
	if err != nil {
		t.Fatalf("SpecKey: %v", err)
	}
	return k.String()
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// jobLines returns the lines of job id's file.
func jobLines(t *testing.T, dir, id string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", id+".ndjson"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})

	job := Job{
		ID:          "j-roundtrip",
		Kind:        "sweep",
		CreatedUnix: 100,
		Specs:       []harness.SpecWire{testSpecWire(t, 1), testSpecWire(t, 2), testSpecWire(t, 3)},
	}
	if err := j.Begin(job); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// While the job runs, its file holds exactly its one job record.
	if lines := jobLines(t, dir, job.ID); len(lines) != 1 {
		t.Fatalf("open job file has %d records, want 1", len(lines))
	}
	if got := j.Stats().Records; got != 1 {
		t.Fatalf("records counter = %d, want 1", got)
	}

	// Reopen cold, as a restart would.
	j2 := mustOpen(t, dir, Options{})
	jobs, err := j2.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("Replay returned %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.ID != job.ID || got.Kind != "sweep" || got.CreatedUnix != 100 || len(got.Specs) != 3 {
		t.Fatalf("job header mangled: %+v", got)
	}
	if n := j2.Stats().Replayed; n != 1 {
		t.Fatalf("replayed counter = %d, want 1", n)
	}
	// Round-tripped specs must resolve back to runnable specs.
	if _, err := got.Specs[0].Spec(); err != nil {
		t.Fatalf("replayed spec does not resolve: %v", err)
	}
}

// TestJournalFinishRemovesFile: a finished job leaves the journal, so
// the directory holds only open work and a restart replays nothing
// of it.
func TestJournalFinishRemovesFile(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{Fsync: fsync})
		for i, id := range []string{"j-a", "j-b", "j-c"} {
			job := Job{ID: id, Kind: "run", CreatedUnix: int64(i + 1), Specs: []harness.SpecWire{testSpecWire(t, int64(i+1))}}
			if err := j.Begin(job); err != nil {
				t.Fatalf("Begin %s: %v", id, err)
			}
		}
		for _, id := range []string{"j-a", "j-c"} {
			if err := j.Finish(id); err != nil {
				t.Fatalf("Finish %s: %v", id, err)
			}
		}
		// Finishing a job the journal does not hold (one that ran
		// unjournaled, or a second Finish) is a no-op.
		if err := j.Finish("j-a"); err != nil {
			t.Fatalf("second Finish: %v", err)
		}
		entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "j-b.ndjson" {
			t.Fatalf("fsync=%v: jobs/ holds %v, want only j-b.ndjson", fsync, entries)
		}

		jobs, err := mustOpen(t, dir, Options{}).Replay(nil)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(jobs) != 1 || jobs[0].ID != "j-b" {
			t.Fatalf("fsync=%v: replayed %+v, want only the unfinished j-b", fsync, jobs)
		}
	}
}

// TestJournalReplaysParentFormat: a directory written by the earlier
// append format — one file per job holding the job record, a task
// record per completed spec and, once finished, a done record — still
// replays. The unfinished job re-enqueues despite its torn tail (a
// crash mid-append), the finished one is removed, and nothing is
// quarantined.
func TestJournalReplaysParentFormat(t *testing.T) {
	dir := t.TempDir()
	jobsPath := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsPath, 0o755); err != nil {
		t.Fatal(err)
	}
	header := func(id string, created int64) string {
		data, err := json.Marshal(record{Format: 1, Type: "job", Job: &Job{
			ID: id, Kind: "sweep", CreatedUnix: created,
			Specs: []harness.SpecWire{testSpecWire(t, 1), testSpecWire(t, 2)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	task := func(i int64) string {
		return fmt.Sprintf(`{"format":1,"type":"task","index":%d,"key":%q}`+"\n", i-1, testKey(t, i))
	}
	files := map[string]string{
		// Compacted after finishing: job, one task per index, done.
		"j-finished": header("j-finished", 1) + task(1) + task(2) + `{"format":1,"type":"done"}` + "\n",
		// Killed mid-sweep: one task landed, the next append tore.
		"j-open": header("j-open", 2) + task(1) + `{"format":1,"type":"ta`,
	}
	for id, body := range files {
		if err := os.WriteFile(filepath.Join(jobsPath, id+".ndjson"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j := mustOpen(t, dir, Options{})
	jobs, err := j.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-open" || len(jobs[0].Specs) != 2 {
		t.Fatalf("replayed %+v, want only the unfinished j-open with its 2 specs", jobs)
	}
	if _, err := os.Stat(filepath.Join(jobsPath, "j-finished.ndjson")); !os.IsNotExist(err) {
		t.Fatalf("finished parent-format file still in jobs/: %v", err)
	}
	if _, err := os.Stat(filepath.Join(jobsPath, "j-open.ndjson")); err != nil {
		t.Fatalf("unfinished parent-format file removed: %v", err)
	}
	st := j.Stats()
	if st.Quarantined != 0 || st.Replayed != 1 {
		t.Fatalf("stats = %+v, want 0 quarantined and 1 replayed", st)
	}
	if q, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(q) != 0 {
		t.Fatalf("quarantine/ holds %v (%v), want nothing", q, err)
	}
}

// TestJournalCorruptRecordQuarantined: a job file whose one record is
// unreadable — garbage, a record from another format version, or a
// record of the wrong type — is set aside and counted, and the
// surrounding jobs still replay.
func TestJournalCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if err := j.Begin(Job{ID: "j-good", Kind: "sweep", CreatedUnix: 1, Specs: []harness.SpecWire{testSpecWire(t, 1)}}); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	bad := map[string]string{
		"j-garbage": "{not json}\n",
		"j-future":  `{"format":99,"type":"job","job":{"id":"j-future","kind":"run"}}` + "\n",
		"j-task":    `{"format":1,"type":"task","index":0}` + "\n",
	}
	for id, body := range bad {
		if err := os.WriteFile(filepath.Join(dir, "jobs", id+".ndjson"), []byte(body), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	j2 := mustOpen(t, dir, Options{})
	jobs, err := j2.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-good" {
		t.Fatalf("corrupt files broke surrounding replay: %+v", jobs)
	}
	if got := j2.Stats().Quarantined; got != uint64(len(bad)) {
		t.Fatalf("quarantined counter = %d, want %d", got, len(bad))
	}
}

func TestJournalUnreadableFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	good := Job{ID: "j-good", Kind: "run", CreatedUnix: 2, Specs: []harness.SpecWire{testSpecWire(t, 1)}}
	if err := j.Begin(good); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// A job file with no readable header at all.
	bad := filepath.Join(dir, "jobs", "j-bad.ndjson")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	jobs, err := j.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-good" {
		t.Fatalf("replayed %+v, want only j-good", jobs)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("bad file still in jobs/: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "j-bad.ndjson")); err != nil {
		t.Fatalf("bad file not quarantined: %v", err)
	}
}

func TestJournalPoisonRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	spec := testSpecWire(t, 9)
	key := testKey(t, 9)
	rec := PoisonRecord{Key: key, Spec: &spec, Attempts: []string{"routed to w1", "worker w1 expired"}}
	if err := j.Poison(rec); err != nil {
		t.Fatalf("Poison: %v", err)
	}
	if err := j.Poison(PoisonRecord{Key: "zz-not-a-key"}); err == nil {
		t.Fatalf("Poison accepted an invalid key")
	}

	j2 := mustOpen(t, dir, Options{})
	got := j2.Poisoned()
	if len(got) != 1 {
		t.Fatalf("reloaded %d poison records, want 1", len(got))
	}
	p, ok := got[key]
	if !ok || len(p.Attempts) != 2 || p.Spec == nil || p.Spec.Workload != spec.Workload {
		t.Fatalf("poison record mangled: %+v", p)
	}
	if j2.Stats().Poisoned != 1 {
		t.Fatalf("poisoned stat = %d, want 1", j2.Stats().Poisoned)
	}
}

func TestJournalRejectsBadIDs(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	for _, id := range []string{"", "UPPER", "a/b", "../etc", strings.Repeat("x", 65)} {
		if err := j.Begin(Job{ID: id, Kind: "run"}); err == nil {
			t.Fatalf("Begin accepted id %q", id)
		}
		if err := j.Finish(id); err == nil {
			t.Fatalf("Finish accepted id %q", id)
		}
	}
	if err := j.Begin(Job{ID: "j-nokind"}); err == nil {
		t.Fatalf("Begin accepted a job without a kind")
	}
}

func TestJournalMismatchedHeaderQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if err := j.Begin(Job{ID: "j-real", Kind: "run", CreatedUnix: 1}); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Copy the valid file under a different name: header names j-real,
	// file claims j-fake.
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "j-real.ndjson"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j-fake.ndjson"), data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	jobs, err := j.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-real" {
		t.Fatalf("mismatched-header file not quarantined: %+v", jobs)
	}
}

// TestJournalCorruptPoisonQuarantined: a poison record that does not
// decode, has another format, is filed under another key or holds no
// valid key is set aside at Open; the valid record beside them loads.
func TestJournalCorruptPoisonQuarantined(t *testing.T) {
	dir := t.TempDir()
	spec := testSpecWire(t, 3)
	good := testKey(t, 3)
	if err := mustOpen(t, dir, Options{}).Poison(PoisonRecord{Key: good, Spec: &spec}); err != nil {
		t.Fatalf("Poison: %v", err)
	}
	other := testKey(t, 4)
	bad := map[string]string{
		"garbage":            "{not json}\n",
		testKey(t, 5):        `{"format":99,"key":"` + testKey(t, 5) + `"}`,
		testKey(t, 6):        `{"format":1,"key":"` + other + `"}`,
		"zz-not-a-valid-key": `{"format":1,"key":"zz-not-a-valid-key"}`,
	}
	for name, body := range bad {
		if err := os.WriteFile(filepath.Join(dir, "poisoned", name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j := mustOpen(t, dir, Options{})
	if got := j.Poisoned(); len(got) != 1 || got[good].Key != good {
		t.Fatalf("loaded poison records %v, want only %s", got, good)
	}
	if st := j.Stats(); st.Quarantined != uint64(len(bad)) {
		t.Fatalf("quarantined = %d, want %d", st.Quarantined, len(bad))
	}
	for name := range bad {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", name+".json")); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
	}
}

// TestJournalIgnoresLeftoverTempFiles: a crash between a write's
// create and its rename leaves a temp file in jobs/ or poisoned/,
// possibly holding a whole record. Open and Replay skip it: it is not
// loaded, replayed or quarantined.
func TestJournalIgnoresLeftoverTempFiles(t *testing.T) {
	src := t.TempDir()
	j := mustOpen(t, src, Options{})
	spec := testSpecWire(t, 1)
	key := testKey(t, 1)
	if err := j.Begin(Job{ID: "j-torn", Kind: "run", CreatedUnix: 1, Specs: []harness.SpecWire{spec}}); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := j.Poison(PoisonRecord{Key: key, Spec: &spec}); err != nil {
		t.Fatalf("Poison: %v", err)
	}

	dir := t.TempDir()
	for sub, name := range map[string]string{"jobs": "j-torn.ndjson", "poisoned": key + ".json"} {
		data, err := os.ReadFile(filepath.Join(src, sub, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		tmp, err := os.CreateTemp(filepath.Join(dir, sub), ".tmp-*")
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

	j2 := mustOpen(t, dir, Options{})
	if got := j2.Poisoned(); len(got) != 0 {
		t.Fatalf("loaded poison records %v from a leftover temp file", got)
	}
	jobs, err := j2.Replay(nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("replayed %+v from a leftover temp file", jobs)
	}
	if st := j2.Stats(); st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0", st.Quarantined)
	}
}

// TestJournalBeginRenameFailure: when the final rename fails (the
// job's path is a directory), Begin reports it, counts no record and
// leaves no temp file in jobs/.
func TestJournalBeginRenameFailure(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: true})
	if err := os.Mkdir(filepath.Join(dir, "jobs", "j-blocked.ndjson"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(Job{ID: "j-blocked", Kind: "run"}); err == nil {
		t.Fatal("Begin succeeded with a directory in the job file's place")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "j-blocked.ndjson" {
		t.Fatalf("jobs/ holds %v after the failed Begin, want only the blocking directory", entries)
	}
	if st := j.Stats(); st.Records != 0 {
		t.Fatalf("records = %d after a failed Begin, want 0", st.Records)
	}
}
