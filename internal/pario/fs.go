// Package pario is the ViPIOS-style parallel I/O subsystem: the storage
// counterpart of the fault-injecting transport layer (internal/msg).
// It treats disk failure as a first-class input, the way PR 3 treated
// the network:
//
//   - an FS abstraction seam under every read/write/rename the
//     checkpoint paths perform, with FaultFS — a deterministic, seedable
//     fault injector (I/O errors, short writes, torn renames, silent bit
//     rot, stalls) sharing the plan syntax of msg.FaultTransport;
//   - Disk, one rank's handle that runs each I/O operation under the
//     transport's msg.RetryPolicy, with "io:" trace spans and retry
//     instants;
//   - redundancy and self-healing (StripeSet): the data files of a set
//     are its stripes, each with a CRC, plus a parity or replica stripe,
//     so any single lost or corrupt stripe file is reconstructed at read
//     time and repaired in place;
//   - Server, a dedicated I/O goroutine per rank, so file writes overlap
//     the collective coordination that follows them.
//
// The package is deliberately below internal/ckpt: it knows bytes,
// files, grids and checksums, not arrays or manifests.
package pario

import (
	"io/fs"
	"os"
	"sync/atomic"
)

// FS is the filesystem seam under every parallel-I/O operation.  OS is
// the real implementation; FaultFS decorates any FS with deterministic
// fault injection.  All writes are whole-file and idempotent, so a
// failed operation is always safe to retry.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	WriteFile(path string, data []byte, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	Rename(oldpath, newpath string) error
	RemoveAll(path string) error
	ReadDir(path string) ([]fs.DirEntry, error)
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

// MkdirAll delegates to os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// WriteFile delegates to os.WriteFile.
func (OS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

// ReadFile delegates to os.ReadFile.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Rename delegates to os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// RemoveAll delegates to os.RemoveAll.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// ReadDir delegates to os.ReadDir.
func (OS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

// Metrics counts what the I/O layer did; attach one to a Disk to
// observe a run.  All fields are safe for concurrent update.
type Metrics struct {
	BytesWritten atomic.Int64
	BytesRead    atomic.Int64
	WriteOps     atomic.Int64
	ReadOps      atomic.Int64
	// Retries counts operation attempts after a failure.
	Retries atomic.Int64
	// Repairs counts stripe files rewritten from redundancy by a
	// restore.
	Repairs atomic.Int64
	// Reconstructions counts stripe payloads rebuilt from parity or a
	// replica at read time (whether or not they were written back).
	Reconstructions atomic.Int64
}
