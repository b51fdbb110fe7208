package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run vfbench's own main: re-executed with
// VFBENCH_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("VFBENCH_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestQuickPrintsAllTables: `vfbench -quick` runs every experiment at
// smoke size, exits 0 and prints the four table headers — each run
// validates itself (MaxErr, particle conservation, value preservation)
// and exits nonzero when it does not hold.
func TestQuickPrintsAllTables(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-quick")
	cmd.Env = append(os.Environ(), "VFBENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("vfbench -quick: %v\n%s", err, out)
	}
	for _, h := range []string{"== E1: ADI", "== E2: PIC", "== E3: smoothing", "== E4: DISTRIBUTE cost"} {
		if !strings.Contains(string(out), h) {
			t.Errorf("output lacks %q:\n%s", h, out)
		}
	}
}
