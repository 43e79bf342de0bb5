// Package journal is the daemon's write-ahead log for accepted work.
//
// Every job the sgxgauged API admits — a /v1/run spec, a /v1/sweep
// batch, a figure render — is recorded here before execution starts
// and removed when it finishes, so the directory holds exactly the
// open work and a crashed daemon restarted on the same -journal.dir
// re-enqueues every job that had not finished. The journal records
// *intent*, not results: result payloads live in the content-addressed
// store (internal/store), and a replayed task whose result is already
// on disk short-circuits through the cache without re-simulating.
//
// Files are written, removed and quarantined through internal/store's
// durable-file code (store.WriteFile, store.RemoveFile,
// store.Quarantine), the one implementation the result store uses too:
//
//   - One file per open job under <dir>/jobs/<id>.ndjson, holding one
//     job record written atomically, so a crash leaves either the
//     whole record or none. Finish removes the file.
//   - Every record carries a versioned envelope ({"format":1,...});
//     a file from a different format is set aside, never misread.
//   - Corruption is quarantined, never fatal: a file whose job record
//     is unreadable is moved to <dir>/quarantine/ and replay continues
//     with the rest.
//   - fsync is opt-in: the daemon's one -fsync flag covers the journal
//     and the store.
//
// The journal also keeps the poison quarantine: a task that exhausts
// its cluster retry budget is written to <dir>/poisoned/<key>.json
// with its attempt history, and every poisoned key is loaded at Open
// so a restarted coordinator fails the spec fast instead of feeding
// it back to the fleet.
package journal

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/store"
)

// formatVersion is the record envelope version this build writes.
const formatVersion = 1

// Options configures a Journal.
type Options struct {
	// Fsync makes every write and removal sync file and directory
	// before returning, trading latency for power-loss durability;
	// off, the journal still survives process crashes (the write
	// buffer is the kernel's, not the process's).
	Fsync bool
}

// Job is the journaled identity of one accepted API job.
type Job struct {
	// ID is the stable job identifier clients reattach by. It is used
	// as a filename stem and must match NewID's alphabet.
	ID string `json:"id"`
	// Kind is the API surface that accepted the job: "run", "sweep"
	// or "figure".
	Kind string `json:"kind"`
	// CreatedUnix orders jobs across restarts (host wall clock,
	// seconds). It is operational metadata only and never touches
	// simulated time.
	CreatedUnix int64 `json:"created_unix"`
	// Specs are the job's tasks in input order, in canonical wire
	// form. Empty for figure jobs.
	Specs []harness.SpecWire `json:"specs,omitempty"`
	// Figure names the experiment for figure jobs.
	Figure string `json:"figure,omitempty"`
}

// PoisonRecord is one quarantined task in <dir>/poisoned/.
type PoisonRecord struct {
	Format int `json:"format"`
	// Key is the task's canonical cache key (hex).
	Key string `json:"key"`
	// Spec is the poisoned spec in wire form, for postmortems.
	Spec *harness.SpecWire `json:"spec,omitempty"`
	// Attempts is the task's attempt history, oldest first.
	Attempts []string `json:"attempts,omitempty"`
}

// record is the envelope of a job file's one record. Files written
// by earlier builds also carry "task" and "done" records after it.
type record struct {
	Format int    `json:"format"`
	Type   string `json:"type"`
	Job    *Job   `json:"job,omitempty"`
}

// Journal is an open write-ahead log rooted at one directory. Methods
// are safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu sync.Mutex
	// poisoned maps key hex -> quarantine record. guarded by mu
	poisoned map[string]PoisonRecord

	records     atomic.Uint64 // job and poison records written by this process
	replayed    atomic.Uint64 // unfinished jobs returned by Replay
	quarantined atomic.Uint64 // unreadable files moved aside
}

// Open opens (creating if needed) the journal rooted at dir and loads
// the poison quarantine.
func Open(dir string, opts Options) (*Journal, error) {
	for _, sub := range []string{jobsDir, store.QuarantineDir, poisonedDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("journal: create %s: %w", sub, err)
		}
	}
	j := &Journal{dir: dir, opts: opts, poisoned: make(map[string]PoisonRecord)}
	if err := j.loadPoisoned(); err != nil {
		return nil, err
	}
	return j, nil
}

const (
	jobsDir     = "jobs"
	poisonedDir = "poisoned"
)

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// NewID returns a fresh job identifier: "j-" plus 12 random bytes in
// hex. IDs double as filename stems, so the alphabet is fixed.
func NewID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform entropy source is
		// broken; there is no meaningful fallback for an identifier
		// that must not collide across restarts.
		panic(fmt.Sprintf("journal: entropy source unavailable: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// validID reports whether id is safe to use as a filename stem.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return false
		}
	}
	return true
}

func (j *Journal) jobPath(id string) string {
	return filepath.Join(j.dir, jobsDir, id+".ndjson")
}

// Begin journals acceptance of a job. It must be called before the
// job starts executing — the whole point of a write-ahead log.
func (j *Journal) Begin(job Job) error {
	if !validID(job.ID) {
		return fmt.Errorf("journal: invalid job id %q", job.ID)
	}
	if job.Kind == "" {
		return fmt.Errorf("journal: job %s has no kind", job.ID)
	}
	data, err := json.Marshal(record{Format: formatVersion, Type: "job", Job: &job})
	if err != nil {
		return fmt.Errorf("journal: encode job %s: %w", job.ID, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := store.WriteFile(j.jobPath(job.ID), append(data, '\n'), j.opts.Fsync); err != nil {
		return fmt.Errorf("journal: begin job %s: %w", job.ID, err)
	}
	j.records.Add(1)
	return nil
}

// Finish retires job id from the journal: its file is removed, so a
// restart no longer replays it. Finishing a job the journal does not
// hold (one that ran unjournaled) is a no-op.
func (j *Journal) Finish(id string) error {
	if !validID(id) {
		return fmt.Errorf("journal: invalid job id %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := store.RemoveFile(j.jobPath(id), j.opts.Fsync); err != nil {
		return fmt.Errorf("journal: finish job %s: %w", id, err)
	}
	return nil
}

// parseJob decodes one job file: its first line is the job record.
// It returns nil when that record is unreadable. finished reports a
// file written by an earlier build, which appended task records and a
// terminal done record to the same file; a torn line after the job
// record (a crash mid-append in that format) is skipped.
func parseJob(data []byte) (job *Job, finished bool) {
	first, rest, _ := strings.Cut(string(data), "\n")
	var rec record
	if err := json.Unmarshal([]byte(first), &rec); err != nil ||
		rec.Format != formatVersion || rec.Type != "job" || rec.Job == nil || !validID(rec.Job.ID) {
		return nil, false
	}
	for _, line := range strings.Split(rest, "\n") {
		var later record
		if json.Unmarshal([]byte(line), &later) == nil && later.Type == "done" {
			return rec.Job, true
		}
	}
	return rec.Job, false
}

// Replay reads every job file and returns the jobs they hold — all of
// them unfinished — ordered by creation time then ID. Unreadable files
// are quarantined; a file an earlier build left with a done record is
// removed as finished. A job for which live reports true is still
// running in this process (it began after Open) and is left out, file
// and all. The replayed counter reflects the jobs returned, the ones a
// caller will re-enqueue.
func (j *Journal) Replay(live func(id string) bool) ([]Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Join(j.dir, jobsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scan jobs: %w", err)
	}
	var jobs []Job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", name, err)
		}
		job, finished := parseJob(data)
		if job == nil || job.ID+".ndjson" != name {
			// A header naming a different job than its file is as
			// untrustworthy as no header.
			j.quarantined.Add(1)
			store.Quarantine(j.dir, path)
			continue
		}
		if finished {
			if err := store.RemoveFile(path, j.opts.Fsync); err != nil {
				return nil, fmt.Errorf("journal: remove finished job %s: %w", job.ID, err)
			}
			continue
		}
		if live != nil && live(job.ID) {
			continue
		}
		jobs = append(jobs, *job)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].CreatedUnix != jobs[b].CreatedUnix {
			return jobs[a].CreatedUnix < jobs[b].CreatedUnix
		}
		return jobs[a].ID < jobs[b].ID
	})
	j.replayed.Add(uint64(len(jobs)))
	return jobs, nil
}

// Poison quarantines a task key with its attempt history. The record
// is durable before Poison returns and is reloaded by every future
// Open, so a poisoned spec stays fenced across restarts.
func (j *Journal) Poison(rec PoisonRecord) error {
	if _, err := harness.ParseKey(rec.Key); err != nil {
		return fmt.Errorf("journal: poison: %w", err)
	}
	rec.Format = formatVersion
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: encode poison record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	path := filepath.Join(j.dir, poisonedDir, rec.Key+".json")
	if err := store.WriteFile(path, append(data, '\n'), j.opts.Fsync); err != nil {
		return fmt.Errorf("journal: poison %s: %w", rec.Key, err)
	}
	j.poisoned[rec.Key] = rec
	j.records.Add(1)
	return nil
}

// Poisoned returns a copy of the poison quarantine, keyed by hex key.
func (j *Journal) Poisoned() map[string]PoisonRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]PoisonRecord, len(j.poisoned))
	for k, v := range j.poisoned {
		out[k] = v
	}
	return out
}

// loadPoisoned scans <dir>/poisoned/ at Open, quarantining records
// that no longer decode.
func (j *Journal) loadPoisoned() error {
	dir := filepath.Join(j.dir, poisonedDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: scan poisoned: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", name, err)
		}
		var rec PoisonRecord
		if err = json.Unmarshal(data, &rec); err == nil {
			_, err = harness.ParseKey(rec.Key)
		}
		if err != nil || rec.Format != formatVersion || rec.Key+".json" != name {
			j.quarantined.Add(1)
			store.Quarantine(j.dir, path)
			continue
		}
		j.poisoned[rec.Key] = rec
	}
	return nil
}

// Stats is a point-in-time snapshot of the journal's counters.
type Stats struct {
	// Records counts job and poison records written by this process.
	Records uint64
	// Replayed counts unfinished jobs returned by Replay — the jobs a
	// restart re-enqueued.
	Replayed uint64
	// Quarantined counts unreadable files moved aside.
	Quarantined uint64
	// Poisoned is the current size of the poison quarantine.
	Poisoned int
}

// Stats returns the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	poisoned := len(j.poisoned)
	j.mu.Unlock()
	return Stats{
		Records:     j.records.Load(),
		Replayed:    j.replayed.Load(),
		Quarantined: j.quarantined.Load(),
		Poisoned:    poisoned,
	}
}
