package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// This file is the daemon's one durability discipline for on-disk
// state. The result store and the job journal (internal/journal) both
// write, remove and quarantine their files through it; they differ
// only in what the files hold. Syncing is opt-in (the daemon's -fsync
// flag): off, a write still survives a process crash, because the
// kernel holds the bytes; on, it also survives a host crash.

// QuarantineDir is the subdirectory of a store or journal root that
// unreadable files are moved into, kept for inspection and out of the
// way of every later lookup or replay.
const QuarantineDir = "quarantine"

// tempPattern names in-flight writes. Readers skip these files by
// suffix (.json, .ndjson), so one left behind by a crash between
// create and rename is never served, counted or replayed.
const tempPattern = ".tmp-*"

// WriteFile atomically replaces path with data: a temp file in path's
// directory is written, optionally synced, closed and renamed into
// place, so a reader or a crash sees the old file or the whole new
// one, never a torn one. With fsync the directory is synced after the
// rename. The temp file is removed on every failure path.
func WriteFile(path string, data []byte, fsync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && fsync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		// Best-effort cleanup; the write's own error is the one to report.
		_ = os.Remove(tmp.Name())
		return err
	}
	if fsync {
		return syncDir(dir)
	}
	return nil
}

// RemoveFile deletes path, with opt-in sync of its directory so the
// removal is durable. A missing file is already removed.
func RemoveFile(path string, fsync bool) error {
	if err := os.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	if fsync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory so a rename or removal within it is
// durable. A failed Close is reported like a failed Sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Quarantine moves the unreadable file at path to root's quarantine
// directory under its own name. A failed rename falls back to removal:
// the one thing that must not survive is a poisoned file that fails
// every later read or replay the same way.
func Quarantine(root, path string) {
	if err := os.Rename(path, filepath.Join(root, QuarantineDir, filepath.Base(path))); err != nil {
		_ = os.Remove(path)
	}
}
