package pario

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// ErrTimeout is returned when an I/O operation exceeds its deadline.
// The operation may still complete in the background (a stalled device
// eventually answering); every write in this package is whole-file and
// idempotent, so the retry that follows is safe either way.
var ErrTimeout = errors.New("pario: I/O operation timed out")

// Disk is one rank's handle on the storage layer: the filesystem, the
// retry policy every operation runs under (the transport's
// msg.RetryPolicy: a deadline doubling per attempt up to 4×Timeout, a
// backoff doubling from 1 ms to 16 ms), the metrics sink, and the tracer
// and rank its "io:" spans land on.  With the zero policy an operation
// runs once, directly, and waits forever.
type Disk struct {
	FS    FS
	Retry msg.RetryPolicy
	// Metrics, when non-nil, counts bytes, operations, retries and
	// repairs.
	Metrics *Metrics
	Tracer  *trace.Tracer
	Rank    int
}

// run executes one FS operation under the retry policy, recording an
// "io:" span on the rank's timeline.  Torn state left behind by a failed
// attempt (a short write) is overwritten by the retry: all operations
// here are idempotent.
func (d Disk) run(name string, op func() error) error {
	sp := d.Tracer.BeginSpan(d.Rank, trace.CatIO, "io:"+name)
	defer sp.End()
	var err error
	for attempt := 0; ; attempt++ {
		err = d.once(op, attempt)
		if err == nil || attempt >= d.Retry.Retries || !retryable(err) {
			break
		}
		if d.Metrics != nil {
			d.Metrics.Retries.Add(1)
		}
		d.Tracer.Instant(d.Rank, trace.CatIO, "io:retry "+name, -1, -1)
		time.Sleep(d.Retry.Backoff(attempt))
	}
	return err
}

// once runs op under attempt's deadline.  The operation goroutine sends
// into a buffered channel, so a late completion after the timeout exits
// cleanly rather than leaking.
func (d Disk) once(op func() error, attempt int) error {
	if d.Retry.Timeout <= 0 {
		return op()
	}
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(d.Retry.Deadline(attempt))
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return ErrTimeout
	}
}

// retryable reports whether an error class can be healed by re-running
// the (idempotent) operation: injected transient faults, timeouts, and
// generic I/O errors qualify; a missing file or directory does not.
func retryable(err error) bool {
	return !os.IsNotExist(err) && !errors.Is(err, fs.ErrNotExist)
}

// WriteFile writes path whole-file under the retry policy.
func (d Disk) WriteFile(path string, data []byte) error {
	err := d.run(fmt.Sprintf("write %s (%dB)", filebase(path), len(data)), func() error {
		return d.FS.WriteFile(path, data, 0o644)
	})
	if err == nil && d.Metrics != nil {
		d.Metrics.WriteOps.Add(1)
		d.Metrics.BytesWritten.Add(int64(len(data)))
	}
	return err
}

// ReadFile reads path under the retry policy.
func (d Disk) ReadFile(path string) ([]byte, error) {
	var data []byte
	err := d.run("read "+filebase(path), func() error {
		var err error
		data, err = d.FS.ReadFile(path)
		return err
	})
	if err == nil && d.Metrics != nil {
		d.Metrics.ReadOps.Add(1)
		d.Metrics.BytesRead.Add(int64(len(data)))
	}
	return data, err
}

// Rename renames under the retry policy.
func (d Disk) Rename(oldpath, newpath string) error {
	return d.run("rename "+filebase(newpath), func() error {
		return d.FS.Rename(oldpath, newpath)
	})
}

// MkdirAll creates a directory tree under the retry policy.
func (d Disk) MkdirAll(path string) error {
	return d.run("mkdir "+filebase(path), func() error {
		return d.FS.MkdirAll(path, 0o755)
	})
}

// filebase is filepath.Base without pulling the path package into every
// span label; it keeps only the last two path elements for context.
func filebase(path string) string {
	sep := byte(os.PathSeparator)
	last, prev := -1, -1
	for i := 0; i < len(path); i++ {
		if path[i] == sep {
			prev, last = last, i
		}
	}
	if prev >= 0 {
		return path[prev+1:]
	}
	return path
}
