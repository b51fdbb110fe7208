package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestRunEpochsKeepsBodyError: under recoverLost, a body error with no
// member lost sends RunEpochs into a regroup that finds nobody dead.  The
// error it returns carries the body's error as well as the regroup's.
func TestRunEpochsKeepsBodyError(t *testing.T) {
	sentinel := errors.New("body failed")
	m := machine.New(2,
		machine.WithRetry(msg.RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 1}))
	defer m.Close()
	eng := core.NewEngine(m)
	errs := make([]error, 2)
	_ = m.Run(func(ctx *machine.Ctx) error {
		calls := 0
		errs[ctx.Rank()] = core.RunEpochs(ctx, eng, true, func(*core.Engine, bool) error {
			if calls++; calls == 1 {
				return sentinel
			}
			return nil
		})
		return errs[ctx.Rank()]
	})
	for r, err := range errs {
		if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "declared dead") {
			t.Errorf("rank %d: RunEpochs = %v, want the body's error and the regroup's", r, err)
		}
	}
}
