package pario

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
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

// op is one filesystem operation — "write", "read", "rename" (of path2)
// or "mkdir" of path, with data — and, once run, its outcome: a plain
// value, so running one allocates nothing of its own.
type op struct {
	verb, path, path2 string
	data              []byte
	err               error
}

// exec performs o once.
func (d Disk) exec(o op) op {
	switch o.verb {
	case "write":
		o.err = d.FS.WriteFile(o.path, o.data, 0o644)
	case "read":
		o.data, o.err = d.FS.ReadFile(o.path)
	case "rename":
		o.err = d.FS.Rename(o.path2, o.path)
	default:
		o.err = d.FS.MkdirAll(o.path, 0o755)
	}
	return o
}

// run executes one FS operation under the retry policy, recording an
// "io:" span on the rank's timeline, labelled only when traced.  Torn
// state left behind by a failed attempt (a short write) is overwritten
// by the retry: all operations here are idempotent.
func (d Disk) run(o op) op {
	name := ""
	if d.Tracer.Enabled() {
		name = o.verb + " " + filebase(o.path)
		if o.verb == "write" {
			name += fmt.Sprintf(" (%dB)", len(o.data))
		}
	}
	sp := d.Tracer.BeginSpan(d.Rank, trace.CatIO, "io:"+name)
	defer sp.End()
	for attempt := 0; ; attempt++ {
		r := d.once(o, attempt)
		if r.err == nil || attempt >= d.Retry.Retries || !retryable(r.err) {
			return r
		}
		if d.Metrics != nil {
			d.Metrics.Retries.Add(1)
		}
		d.Tracer.Instant(d.Rank, trace.CatIO, "io:retry "+name, -1, -1)
		time.Sleep(d.Retry.Backoff(attempt))
	}
}

// once runs o under attempt's deadline.  The operation goroutine sends
// into a buffered channel, so a late completion after the timeout exits
// cleanly rather than leaking.
func (d Disk) once(o op, attempt int) op {
	if d.Retry.Timeout <= 0 {
		return d.exec(o)
	}
	done := make(chan op, 1)
	go func(o op) { done <- d.exec(o) }(o)
	t := time.NewTimer(d.Retry.Deadline(attempt))
	defer t.Stop()
	select {
	case r := <-done:
		return r
	case <-t.C:
		return op{err: ErrTimeout}
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
	err := d.run(op{verb: "write", path: path, data: data}).err
	if err == nil && d.Metrics != nil {
		d.Metrics.WriteOps.Add(1)
		d.Metrics.BytesWritten.Add(int64(len(data)))
	}
	return err
}

// ReadFile reads path under the retry policy.
func (d Disk) ReadFile(path string) ([]byte, error) {
	r := d.run(op{verb: "read", path: path})
	if r.err == nil && d.Metrics != nil {
		d.Metrics.ReadOps.Add(1)
		d.Metrics.BytesRead.Add(int64(len(r.data)))
	}
	return r.data, r.err
}

// Rename renames under the retry policy.
func (d Disk) Rename(oldpath, newpath string) error {
	return d.run(op{verb: "rename", path: newpath, path2: oldpath}).err
}

// MkdirAll creates a directory tree under the retry policy.
func (d Disk) MkdirAll(path string) error { return d.run(op{verb: "mkdir", path: path}).err }

// filebase keeps the last two elements of path, for span labels.
func filebase(path string) string {
	i := strings.LastIndexByte(path, os.PathSeparator)
	return path[strings.LastIndexByte(path[:max(i, 0)], os.PathSeparator)+1:]
}
