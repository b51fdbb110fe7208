package ckpt

import (
	"fmt"
	"path/filepath"
)

// ScrubSummary reports a Scrub pass over a checkpoint directory.
type ScrubSummary struct {
	// Epochs counts committed epochs examined.
	Epochs int
	// Checked counts integrity-checked files across all epochs.
	Checked int
	// Repaired lists files rewritten in place from redundancy
	// (epoch-qualified paths relative to the checkpoint directory).
	Repaired []string
	// Unrecoverable lists damaged files no redundancy could rebuild.
	Unrecoverable []string
}

// Scrub walks every committed epoch in dir, integrity-checks all of its
// files, and repairs what redundancy can rebuild — rank files from
// parity or replica, damaged parity recomputed from intact rank files,
// damaged replicas recopied from their primaries.  Run it periodically
// (or before shrinking redundancy) so silent bitrot is caught while the
// redundant copy still exists, not at restore time.  Unrecoverable
// damage is reported, not an error: LatestEpoch and Restore already
// skip epochs that cannot be read.
//
// Scrub is a single-process maintenance pass, not a collective: call it
// from one place (a tool, or rank 0 between runs).
func Scrub(dir string, opts Options) (*ScrubSummary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	d := opts.disk(0, nil)
	epochs, err := epochsIn(d.FS, dir)
	if err != nil {
		return nil, err
	}
	sum := &ScrubSummary{}
	for _, n := range epochs {
		epochDir := filepath.Join(dir, epochDirName(n))
		man, err := readManifest(d, epochDir)
		if err != nil {
			continue // uncommitted or damaged epoch: not scrubbable
		}
		sum.Epochs++
		set := man.stripeSet(epochDir)
		rep, err := set.Scrub(d)
		if err != nil {
			return sum, fmt.Errorf("ckpt: scrubbing %s: %w", epochDir, err)
		}
		sum.Checked += rep.Checked
		for _, name := range rep.Repaired {
			sum.Repaired = append(sum.Repaired, filepath.Join(epochDirName(n), name))
		}
		for _, name := range rep.Unrecoverable {
			sum.Unrecoverable = append(sum.Unrecoverable, filepath.Join(epochDirName(n), name))
		}
	}
	return sum, nil
}
