package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run vfanalyze's own main: re-executed with
// VFANALYZE_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("VFANALYZE_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDemosComm: every built-in listing analyzes cleanly with -comm and
// prints both the reaching-set and the communication report.
func TestDemosComm(t *testing.T) {
	for _, demo := range []string{"fig1", "fig2", "example2", "example4", "idt"} {
		cmd := exec.Command(os.Args[0], "-demo", demo, "-comm")
		cmd.Env = append(os.Environ(), "VFANALYZE_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("vfanalyze -demo %s -comm: %v\n%s", demo, err, out)
		}
		for _, h := range []string{"reaching distribution sets at array references:", "communication requirements at references"} {
			if !strings.Contains(string(out), h) {
				t.Errorf("-demo %s: output lacks %q:\n%s", demo, h, out)
			}
		}
	}
}
