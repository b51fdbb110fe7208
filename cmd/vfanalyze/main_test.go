package main

import (
	"os"
	"os/exec"
	"path/filepath"
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

// TestDemosComm: every built-in listing analyzes cleanly with -comm, and
// its report is testdata/<demo>.golden byte for byte.  A change that
// moves a report on purpose regenerates the file with
// `go run ./cmd/vfanalyze -demo <demo> -comm > cmd/vfanalyze/testdata/<demo>.golden`
// and lists the moved lines in CHANGES.md.
func TestDemosComm(t *testing.T) {
	for _, demo := range []string{"fig1", "fig2", "example2", "example4", "idt"} {
		cmd := exec.Command(os.Args[0], "-demo", demo, "-comm")
		cmd.Env = append(os.Environ(), "VFANALYZE_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("vfanalyze -demo %s -comm: %v\n%s", demo, err, out)
		}
		want, err := os.ReadFile(filepath.Join("testdata", demo+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("-demo %s: report differs from testdata/%s.golden:\n%s", demo, demo, out)
		}
	}
}
