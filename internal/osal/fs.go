// Package osal provides the simulated operating-system services the
// workloads rely on: an in-memory untrusted filesystem whose
// operations are charged as system calls on the calling thread.
//
// The filesystem is "untrusted" in the SGX sense: file contents live
// outside any enclave, and in Native/LibOS modes every read or write
// crosses the enclave boundary through an OCALL (paper Appendix E).
package osal

import (
	"fmt"
	"sort"
	"sync"

	"sgxgauge/internal/sgx"
)

// File is one file in the simulated filesystem.
type File struct {
	Name string
	Data []byte
}

// FS is the in-memory untrusted filesystem. Host-side helpers
// (Create, Raw) cost nothing; thread-side operations charge syscalls.
type FS struct {
	mu    sync.Mutex
	files map[string]*File // guarded by mu
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*File)}
}

// Create installs a file with the given contents, replacing any
// existing one. It models host-side setup and costs nothing. The FS
// takes ownership of data; its capacity is clipped to its length, so
// a later growing write reallocates instead of writing into the
// caller's array beyond len(data).
func (fs *FS) Create(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = &File{Name: name, Data: data[:len(data):len(data)]}
}

// Remove deletes a file; missing files are ignored.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
}

// Raw returns the live contents of a file for host-side inspection
// (hash checks, test assertions), or nil when absent. Growing writes
// leave spare capacity past the returned length; that memory belongs
// to the FS, so callers must not append to the slice.
func (fs *FS) Raw(name string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return f.Data
	}
	return nil
}

// Size returns a file's length in bytes, or -1 when absent.
func (fs *FS) Size(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return len(f.Data)
	}
	return -1
}

// PatchRaw overwrites file bytes at off with data, creating the file
// if absent. A write past the end grows the file as grow does: the
// extension is zero-filled and growth is amortized, so writing a file
// chunk by chunk costs time linear in its final size. It requires
// off >= 0. It models host-side writes performed on behalf of a
// privileged runtime and costs nothing; the caller is responsible for
// charging the corresponding syscalls.
func (fs *FS) PatchRaw(name string, off int, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[name]
	if f == nil {
		f = &File{Name: name}
		fs.files[name] = f
	}
	f.Data = grow(f.Data, off+len(data))
	copy(f.Data[off:], data)
}

// grow returns b extended to need bytes when need > len(b). The
// extension is zero-filled, including bytes taken from b's spare
// capacity. A reallocation at least doubles the capacity, so a
// sequence of extending writes allocates under twice the final size
// in total (append's ~1.25x policy for large slices allocates about
// five times). The new array is appended to nil, which takes the
// requested length as its capacity rounded up to a size class (spare
// room for later writes); appending to b would apply append's policy
// to the request and turn twice the capacity into ~2.4x.
func grow(b []byte, need int) []byte {
	if need <= len(b) {
		return b
	}
	if need <= cap(b) {
		return append(b, make([]byte, need-len(b))...)
	}
	nb := append([]byte(nil), make([]byte, max(need, 2*cap(b)))...)
	copy(nb, b)
	return nb[:need]
}

// List returns the file names in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (fs *FS) lookup(name string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.files[name]
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
	f := fs.lookup(name)
	if f == nil {
		t.Syscall(0) // the failed open still costs a syscall
		return nil, fmt.Errorf("osal: open %q: no such file", name)
	}
	t.Syscall(uint64(len(name)))
	return &fileHandle{fs: fs, f: f}, nil
}

// CreateFile implements FileSystem.
func (fs *FS) CreateFile(t *sgx.Thread, name string) (Handle, error) {
	t.Syscall(uint64(len(name)))
	fs.mu.Lock()
	f := &File{Name: name}
	fs.files[name] = f
	fs.mu.Unlock()
	return &fileHandle{fs: fs, f: f}, nil
}

type fileHandle struct {
	fs     *FS
	f      *File
	closed bool
}

func (h *fileHandle) Size() int { return len(h.f.Data) }

func (h *fileHandle) ReadAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("osal: read on closed file %q", h.f.Name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected read still costs a syscall
		return 0, fmt.Errorf("osal: read of %q at offset %d, length %d", h.f.Name, off, n)
	}
	if off >= len(h.f.Data) {
		t.Syscall(0)
		return 0, nil
	}
	end := off + n
	if end > len(h.f.Data) {
		end = len(h.f.Data)
	}
	data := h.f.Data[off:end]
	t.Syscall(uint64(len(data)))
	t.Write(addr, data)
	return len(data), nil
}

// WriteAt extends the file through grow: amortized, zero-filled.
func (h *fileHandle) WriteAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("osal: write on closed file %q", h.f.Name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected write still costs a syscall
		return 0, fmt.Errorf("osal: write of %q at offset %d, length %d", h.f.Name, off, n)
	}
	h.f.Data = grow(h.f.Data, off+n)
	t.Syscall(uint64(n))
	t.Read(addr, h.f.Data[off:off+n])
	return n, nil
}

func (h *fileHandle) Close(t *sgx.Thread) error {
	if h.closed {
		return fmt.Errorf("osal: double close of %q", h.f.Name)
	}
	h.closed = true
	t.Syscall(0)
	return nil
}
