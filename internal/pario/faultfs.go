package pario

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// ErrInjected is the error produced by injected I/O faults.  An injected
// FaultEIO delivers no side effect (nothing reached the disk), so the
// operation is safe to retry; an injected FaultWriteShort leaves a torn
// prefix behind, exactly like a crash or a full disk mid-write.
var ErrInjected = errors.New("pario: injected I/O fault")

// FaultKind selects what a FaultRule does when it fires.
type FaultKind int

// Fault kinds.
const (
	// FaultEIO fails the operation with ErrInjected and no side effect
	// (a transient device error: retrying re-runs the operation).
	FaultEIO FaultKind = iota
	// FaultWriteShort writes only a prefix of the data, then fails with
	// ErrInjected (a crash or full disk mid-write: the torn file stays on
	// disk; a retry rewrites the whole file).  Fires on writes only.
	FaultWriteShort
	// FaultTornRename performs the rename but first truncates the last
	// regular file under the source to half its length (commit metadata
	// reached the disk, a data block did not — the classic missing-fsync
	// torn commit).  The operation reports success.  Fires on renames.
	FaultTornRename
	// FaultBitrot flips one bit: on a write, in the stored copy (the
	// caller's buffer is untouched and the call reports success — silent
	// media corruption, detectable only by checksum); on a read, in the
	// returned copy (a flaky read path; the file itself stays intact).
	FaultBitrot
	// FaultStall delays the operation by Delay before running it (a slow
	// or hung device; with a Config.Timeout the caller's deadline fires
	// first and the retry re-runs the operation).
	FaultStall
)

// faultKinds is the disk half of the plan grammar; the row order is the
// FaultKind numbering.
var faultKinds = fault.Kinds{
	FaultEIO:        {Name: "eio"},
	FaultWriteShort: {Name: "short"},
	FaultTornRename: {Name: "torn"},
	FaultBitrot:     {Name: "bitrot"},
	FaultStall:      {Name: "stall", NeedDelay: true},
}

func (k FaultKind) String() string { return faultKinds.Name(int(k)) }

// FaultKinds returns the plan syntax's kind names as "a|b|c", for help
// texts.
func FaultKinds() string { return faultKinds.List() }

// FaultRule describes one deterministic disk-fault schedule.  A rule
// watches the matching operations of one rank's FS endpoint and fires on
// a subset of them; matching operations are counted per rank, so a
// schedule replays identically for a deterministic program regardless of
// how ranks interleave.
type FaultRule struct {
	Kind FaultKind
	// Op restricts the rule to one operation kind: "write", "read",
	// "rename", "mkdir", "remove", "readdir" ("" = the kind's natural
	// ops: writes for short/bitrot-on-write, renames for torn, any for
	// eio/stall; bitrot with op=read rots the read path instead).
	Op string
	// Rank restricts the rule to one rank's endpoint (-1 = all).
	Rank int
	// Path restricts by substring of the operation's path ("" = any);
	// e.g. path=manifest targets the manifest write, path=rank- a
	// checkpoint's rank files.
	Path string
	// After, Count, Every and Prob select which of the matching
	// operations fire; they are fault.Window's fields, documented there
	// (Count 0 = every match after After, a persistent fault).
	After, Count, Every int
	Prob                float64
	// Delay is the injected latency for FaultStall.
	Delay time.Duration
}

// FaultPlan is a set of disk-fault rules plus the RNG seed for
// probabilistic rules; the per-rank streams derive from Seed+rank.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
}

// ParseFaultPlan parses the -io-fault flag syntax, the disk twin of
// msg.ParseFaultPlan: semicolon-separated rules, each a kind followed by
// comma-separated key=value options, e.g.
//
//	eio,op=write,path=rank-,rank=1,count=2;stall,delay=20ms,every=3
//
// Kinds: eio, short, torn, bitrot, stall.  Options: the common rank,
// after, count, every, prob and delay (a Go duration), plus op and path.
// A bare "seed=N" segment sets the plan seed for prob rules.  fault.Parse
// has the grammar and the value ranges.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	var err error
	plan.Seed, err = fault.Parse(spec, "pario", faultKinds, func(kind int) fault.Fields {
		plan.Rules = append(plan.Rules, FaultRule{Kind: FaultKind(kind), Rank: -1})
		r := &plan.Rules[len(plan.Rules)-1]
		return fault.Fields{Rank: &r.Rank, After: &r.After, Count: &r.Count, Every: &r.Every,
			Prob: &r.Prob, Delay: &r.Delay, Set: r.setOption}
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// setOption stores one of the disk-only plan options.
func (r *FaultRule) setOption(k, v string) (ok bool, err error) {
	switch k {
	case "op":
		if !slices.Contains(faultOps, v) {
			return true, fmt.Errorf("unknown op (want %s)", strings.Join(faultOps, "|"))
		}
		r.Op = v
	case "path":
		r.Path = v
	default:
		return false, nil
	}
	return true, err
}

// faultOps are the operation names a rule's Op can take, one per FS
// method.
var faultOps = []string{"write", "read", "rename", "mkdir", "remove", "readdir"}

// opMatches reports whether a rule applies to the given operation kind,
// honouring each fault kind's natural operation set when Op is elided.
func (r *FaultRule) opMatches(op string) bool {
	if r.Op != "" {
		return r.Op == op
	}
	switch r.Kind {
	case FaultWriteShort:
		return op == "write"
	case FaultTornRename:
		return op == "rename"
	case FaultBitrot:
		return op == "write"
	}
	return true // eio, stall: any operation
}

// FaultFS decorates any FS with the plan's deterministic fault
// schedules.  Each SPMD rank performs its I/O through its own endpoint
// (Rank), which carries that rank's match counters.
type FaultFS struct {
	inner FS
	plan  *FaultPlan

	mu  sync.Mutex
	eps map[int]*faultEndpoint
}

// NewFaultFS wraps inner with the plan's fault rules.
func NewFaultFS(inner FS, plan *FaultPlan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan, eps: map[int]*faultEndpoint{}}
}

// Rank returns rank's fault-injecting FS endpoint (created on first use).
func (f *FaultFS) Rank(rank int) FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.eps[rank]
	if !ok {
		ep = &faultEndpoint{f: f, rank: rank,
			inj: fault.NewInjector(f.plan.Seed, rank, true, f.plan.Rules, (*FaultRule).window)}
		f.eps[rank] = ep
	}
	return ep
}

type faultEndpoint struct {
	f    *FaultFS
	rank int
	inj  *fault.Injector[FaultRule]
}

func (r *FaultRule) window() fault.Window {
	return fault.Window{After: r.After, Count: r.Count, Every: r.Every, Prob: r.Prob}
}

// fire runs one operation past the schedule and returns the first rule
// of the given kinds that fires on it.
func (e *faultEndpoint) fire(op, path string, kinds ...FaultKind) *FaultRule {
	return e.inj.Fire(func(r *FaultRule) bool {
		return slices.Contains(kinds, r.Kind) && r.opMatches(op) &&
			(r.Rank < 0 || r.Rank == e.rank) &&
			(r.Path == "" || strings.Contains(path, r.Path))
	})
}

// begin applies a fired stall, then runs the operation past eio and the
// given kinds: an eio hit comes back as the operation's error, any other
// as the rule for the caller to act on.
func (e *faultEndpoint) begin(op, path string, kinds ...FaultKind) (*FaultRule, error) {
	if r := e.fire(op, path, FaultStall); r != nil {
		time.Sleep(r.Delay)
	}
	r := e.fire(op, path, append(kinds, FaultEIO)...)
	if r != nil && r.Kind == FaultEIO {
		return nil, fmt.Errorf("%w: %s %s (rank %d)", ErrInjected, op, path, e.rank)
	}
	return r, nil
}

// rot returns a copy of data with one mid-buffer bit flipped; the
// caller's buffer stays intact, so only a checksum can tell.
func rot(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	cp := slices.Clone(data)
	cp[len(cp)/2] ^= 0x04
	return cp
}

func (e *faultEndpoint) MkdirAll(path string, perm os.FileMode) error {
	if _, err := e.begin("mkdir", path); err != nil {
		return err
	}
	return e.f.inner.MkdirAll(path, perm)
}

func (e *faultEndpoint) WriteFile(path string, data []byte, perm os.FileMode) error {
	r, err := e.begin("write", path, FaultWriteShort, FaultBitrot)
	if err != nil {
		return err
	}
	switch {
	case r == nil:
	case r.Kind == FaultWriteShort:
		// Half the data reaches the disk; the error reports the tear.
		n := len(data) / 2
		if err := e.f.inner.WriteFile(path, data[:n], perm); err != nil {
			return err
		}
		return fmt.Errorf("%w: short write %s: %d of %d bytes (rank %d)", ErrInjected, path, n, len(data), e.rank)
	case r.Kind == FaultBitrot:
		data = rot(data) // the stored copy rots; the call reports success
	}
	return e.f.inner.WriteFile(path, data, perm)
}

func (e *faultEndpoint) ReadFile(path string) ([]byte, error) {
	if _, err := e.begin("read", path); err != nil {
		return nil, err
	}
	data, err := e.f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if e.fire("read", path, FaultBitrot) != nil {
		data = rot(data)
	}
	return data, nil
}

func (e *faultEndpoint) Rename(oldpath, newpath string) error {
	r, err := e.begin("rename", oldpath, FaultTornRename)
	if err != nil {
		return err
	}
	if r != nil {
		if err := e.tear(oldpath); err != nil {
			return err
		}
	}
	return e.f.inner.Rename(oldpath, newpath)
}

// tear truncates the last regular file under path (or path itself, for a
// file rename) to half its length: the rename's metadata will land, one
// data block will not.
func (e *faultEndpoint) tear(path string) error {
	target := path
	if ents, err := e.f.inner.ReadDir(path); err == nil {
		var names []string
		for _, ent := range ents {
			if !ent.IsDir() {
				names = append(names, ent.Name())
			}
		}
		if len(names) == 0 {
			return nil
		}
		sort.Strings(names)
		target = path + string(os.PathSeparator) + names[len(names)-1]
	}
	data, err := e.f.inner.ReadFile(target)
	if err != nil || len(data) == 0 {
		return err
	}
	return e.f.inner.WriteFile(target, data[:len(data)/2], 0o644)
}

func (e *faultEndpoint) RemoveAll(path string) error {
	if _, err := e.begin("remove", path); err != nil {
		return err
	}
	return e.f.inner.RemoveAll(path)
}

func (e *faultEndpoint) ReadDir(path string) ([]fs.DirEntry, error) {
	if _, err := e.begin("readdir", path); err != nil {
		return nil, err
	}
	return e.f.inner.ReadDir(path)
}
