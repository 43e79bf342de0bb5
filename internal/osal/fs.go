// Package osal provides the simulated operating-system services the
// workloads rely on: an in-memory untrusted filesystem whose
// operations are charged as system calls on the calling thread.
//
// The filesystem is "untrusted" in the SGX sense: file contents live
// outside any enclave, and in Native/LibOS modes every read or write
// crosses the enclave boundary through an OCALL (paper Appendix E).
//
// A file's bytes live on 4 KiB page frames taken from the page
// recycler (mem.NewFrame), so a growing file adds pages instead of
// reallocating and copying its contents, and FS.Release gives the
// pages back when the run that owns the filesystem ends.
package osal

import (
	"fmt"
	"sort"
	"sync"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
)

// File is one file in the simulated filesystem: a table of page
// frames plus a size. A nil page reads as zeros, so a sparse gap
// takes no frame. Bytes of a page past size are always zero, since
// frames come zeroed and files never shrink.
type File struct {
	Name    string
	pages   []*mem.Frame
	size    int
	handles int // open handles, which may still read or write the pages
}

// read copies the file bytes at off into p and returns the number
// copied, short at end of file.
func (f *File) read(off int, p []byte) int {
	if off >= f.size {
		return 0
	}
	n := min(len(p), f.size-off)
	for done := 0; done < n; {
		pi, po := (off+done)/mem.PageSize, (off+done)%mem.PageSize
		take := min(mem.PageSize-po, n-done)
		if pi < len(f.pages) && f.pages[pi] != nil {
			copy(p[done:done+take], f.pages[pi].Data[po:])
		} else {
			clear(p[done : done+take])
		}
		done += take
	}
	return n
}

// write stores data at off, taking a zeroed frame for every page it
// touches that has none and extending the file as needed; any gap
// before off reads back as zeros.
func (f *File) write(off int, data []byte) {
	end := off + len(data)
	if need := (end + mem.PageSize - 1) / mem.PageSize; need > len(f.pages) {
		f.pages = append(f.pages, make([]*mem.Frame, need-len(f.pages))...)
	}
	for done := 0; done < len(data); {
		pi, po := (off+done)/mem.PageSize, (off+done)%mem.PageSize
		if f.pages[pi] == nil {
			f.pages[pi] = mem.NewFrame()
		}
		done += copy(f.pages[pi].Data[po:], data[done:])
	}
	f.size = max(f.size, end)
}

// free gives the file's pages back to the page recycler. The caller
// guarantees no handle can reach them any more.
func (f *File) free() {
	for _, p := range f.pages {
		if p != nil {
			mem.FreeFrame(p)
		}
	}
	f.pages = nil
}

// drop detaches a file the FS no longer names. Its pages go back to
// the recycler when no handle is open; otherwise the open handles
// keep the old bytes and the pages are left to the collector.
func (f *File) drop() {
	if f.handles == 0 {
		f.free()
	}
}

// FS is the in-memory untrusted filesystem. Host-side helpers
// (Create, ReadRaw, PatchRaw) cost nothing; thread-side operations
// charge syscalls. Release ends its life: it gives every page of the
// files it still names back to the page recycler, and any later
// access, through the FS or a handle, panics.
type FS struct {
	mu       sync.Mutex
	files    map[string]*File // guarded by mu
	released bool             // guarded by mu
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*File)}
}

// live panics when the FS was released. caller holds mu.
func (fs *FS) live() {
	if fs.released {
		panic("osal: use of a released filesystem")
	}
}

// install names f, dropping the file it replaces. caller holds mu.
func (fs *FS) install(f *File) {
	fs.live()
	if old := fs.files[f.Name]; old != nil {
		old.drop()
	}
	fs.files[f.Name] = f
}

// Create installs a file with a copy of the given contents, replacing
// any existing one. It models host-side setup and costs nothing.
func (fs *FS) Create(name string, data []byte) {
	f := &File{Name: name}
	f.write(0, data)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.install(f)
}

// Remove deletes a file; missing files are ignored. A handle opened
// before the removal keeps reading the old bytes.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	if f := fs.files[name]; f != nil {
		delete(fs.files, name)
		f.drop()
	}
}

// ReadRaw copies the bytes of a file at off into p for host-side
// inspection (hash checks, test assertions) and returns the number
// copied: short at end of file, and 0 for an absent file (Size tells
// the two apart). It requires off >= 0.
func (fs *FS) ReadRaw(name string, off int, p []byte) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	if f := fs.files[name]; f != nil {
		return f.read(off, p)
	}
	return 0
}

// Size returns a file's length in bytes, or -1 when absent.
func (fs *FS) Size(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	if f := fs.files[name]; f != nil {
		return f.size
	}
	return -1
}

// PatchRaw overwrites file bytes at off with data, creating the file
// if absent. A write past the end extends the file and any gap reads
// back as zeros. It requires off >= 0. It models host-side writes
// performed on behalf of a privileged runtime and costs nothing; the
// caller is responsible for charging the corresponding syscalls.
func (fs *FS) PatchRaw(name string, off int, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	f := fs.files[name]
	if f == nil {
		f = &File{Name: name}
		fs.files[name] = f
	}
	f.write(off, data)
}

// List returns the file names in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Release gives every page of the files the FS still names back to
// the page recycler and ends the filesystem's life: any later access,
// through the FS or one of its handles, panics. Pages of files that
// were removed or replaced while a handle was open are left to the
// collector. The harness calls it when the run that owns the FS ends.
func (fs *FS) Release() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	for _, f := range fs.files {
		f.free()
	}
	fs.files, fs.released = nil, true
}

// size returns f's length.
func (fs *FS) size(f *File) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	return f.size
}

// readFile copies f's bytes at off into p.
func (fs *FS) readFile(f *File, off int, p []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	f.read(off, p)
}

// writeFile stores data in f at off.
func (fs *FS) writeFile(f *File, off int, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	f.write(off, data)
}

// closeFile drops an open handle of f.
func (fs *FS) closeFile(f *File) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	f.handles--
}

// FileSystem is the interface workloads use for file I/O. The plain
// FS implements it; the LibOS protected-file layer wraps it.
type FileSystem interface {
	// Open opens an existing file for reading/writing.
	Open(t *sgx.Thread, name string) (Handle, error)
	// CreateFile creates (or truncates) a file and opens it.
	CreateFile(t *sgx.Thread, name string) (Handle, error)
}

// Handle is an open file. Reads and writes move data between the file
// and the simulated address space of the calling thread, charging both
// the syscall and the memory traffic.
type Handle interface {
	// ReadAt copies up to n bytes from file offset off into the
	// simulated address space at addr, returning the bytes copied.
	ReadAt(t *sgx.Thread, addr uint64, off, n int) (int, error)
	// WriteAt copies n bytes from the simulated address space at
	// addr into the file at offset off, extending it as needed; any
	// gap before off reads back as zeros.
	WriteAt(t *sgx.Thread, addr uint64, off, n int) (int, error)
	// Size returns the current file length.
	Size() int
	// Close releases the handle.
	Close(t *sgx.Thread) error
}

// Open implements FileSystem.
func (fs *FS) Open(t *sgx.Thread, name string) (Handle, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.live()
	f := fs.files[name]
	if f == nil {
		t.Syscall(0) // the failed open still costs a syscall
		return nil, fmt.Errorf("osal: open %q: no such file", name)
	}
	f.handles++
	t.Syscall(uint64(len(name)))
	return &fileHandle{fs: fs, f: f}, nil
}

// CreateFile implements FileSystem.
func (fs *FS) CreateFile(t *sgx.Thread, name string) (Handle, error) {
	t.Syscall(uint64(len(name)))
	f := &File{Name: name, handles: 1}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.install(f)
	return &fileHandle{fs: fs, f: f}, nil
}

// fileHandle is an open plain file. Data moves between the file's
// pages and the simulated address space through buf, a scratch buffer
// the handle keeps for its largest transfer, so each ReadAt or WriteAt
// is one syscall and one contiguous memory access of the full length.
type fileHandle struct {
	fs     *FS
	f      *File
	buf    []byte
	closed bool
}

// scratch returns the handle's scratch buffer with length n.
func (h *fileHandle) scratch(n int) []byte {
	if cap(h.buf) < n {
		h.buf = make([]byte, n)
	}
	return h.buf[:n]
}

func (h *fileHandle) Size() int { return h.fs.size(h.f) }

func (h *fileHandle) ReadAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("osal: read on closed file %q", h.f.Name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected read still costs a syscall
		return 0, fmt.Errorf("osal: read of %q at offset %d, length %d", h.f.Name, off, n)
	}
	size := h.fs.size(h.f)
	if off >= size {
		t.Syscall(0)
		return 0, nil
	}
	data := h.scratch(min(n, size-off))
	h.fs.readFile(h.f, off, data)
	t.Syscall(uint64(len(data)))
	t.Write(addr, data)
	return len(data), nil
}

// WriteAt copies the simulated bytes into the handle's scratch buffer,
// then onto the file's pages.
func (h *fileHandle) WriteAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("osal: write on closed file %q", h.f.Name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected write still costs a syscall
		return 0, fmt.Errorf("osal: write of %q at offset %d, length %d", h.f.Name, off, n)
	}
	data := h.scratch(n)
	t.Syscall(uint64(n))
	t.Read(addr, data)
	h.fs.writeFile(h.f, off, data)
	return n, nil
}

func (h *fileHandle) Close(t *sgx.Thread) error {
	if h.closed {
		return fmt.Errorf("osal: double close of %q", h.f.Name)
	}
	h.fs.closeFile(h.f)
	h.closed = true
	h.buf = nil
	t.Syscall(0)
	return nil
}
