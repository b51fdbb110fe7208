package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the tests run vfrun's own main: re-executed with
// VFRUN_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("VFRUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var checksumLine = regexp.MustCompile(`(?m)^  (\w+) +checksum ([-0-9.]+)`)

// vfrun runs the command and returns its array checksums as printed.
func vfrun(t *testing.T, args ...string) map[string]string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VFRUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("vfrun %v: %v\n%s", args, err, out)
	}
	return checksums(out)
}

// checksums reads the array checksums out of vfrun's output.
func checksums(out []byte) map[string]string {
	sums := map[string]string{}
	for _, m := range checksumLine.FindAllSubmatch(out, -1) {
		sums[string(m[1])] = string(m[2])
	}
	return sums
}

func sameSums(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: checksums %v, want %v", what, got, want)
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("%s: checksums %v, want %v", what, got, want)
		}
	}
}

// TestDemoChecksums pins what the two paper listings compute, Figure 2
// at five widths: every BALANCE sets BOUNDS by apps.CountBounds, and
// FIELD and COUNT are what apps.RunPIC computes (apps'
// TestPICFig2MatchesRunPIC holds the listing to it).
func TestDemoChecksums(t *testing.T) {
	sameSums(t, "fig1", vfrun(t, "-p", "4", "-demo", "fig1"),
		map[string]string{"U": "8190.000000", "F": "4096.000000", "V": "957.019103"})
	for p, bounds := range map[string]string{"2": "200", "3": "279", "4": "356", "5": "431", "8": "646"} {
		sameSums(t, "fig2 on "+p, vfrun(t, "-p", p, "-demo", "fig2"),
			map[string]string{"BOUNDS": bounds + ".000000", "FIELD": "491520.058944", "COUNT": "8192.000000"})
	}
}

// TestDrainKeepsChecksums: with health scoring, an injected straggler
// and -drain, the run goes through core.RunEpochs — checkpoint, drain,
// replay on the survivors — and still computes what the plain run does.
// Which rank drains, and whether one does before the program ends, is
// the scorer's business and not compared.
func TestDrainKeepsChecksums(t *testing.T) {
	plain := vfrun(t, "-p", "4", "-demo", "fig1")
	drained := vfrun(t, "-p", "4", "-demo", "fig1",
		"-health-window", "4", "-drain", "-slow-factor", "8", "-ckpt-dir", t.TempDir())
	sameSums(t, "drain run", drained, plain)
}

// TestIOFaultKeepsChecksums: an injected disk write error under the
// checkpoints is retried away, and the run computes what the plain run
// does.
func TestIOFaultKeepsChecksums(t *testing.T) {
	plain := vfrun(t, "-p", "4", "-demo", "fig1")
	faulted := vfrun(t, "-p", "4", "-demo", "fig1",
		"-ckpt-dir", t.TempDir(), "-io-fault", "eio,op=write,count=1")
	sameSums(t, "io-fault run", faulted, plain)
}

// TestRecoverKeepsChecksums: a run recovered from the checkpoints of a
// plain run computes what the plain run does.  Checkpoints follow the
// trips of the program's driver loop (its last top-level DO), and the
// recovery resumes after the last checkpointed trip.  (Figure 1 also
// recovers on fewer ranks; Figure 2's BOUNDS($NP) is sized by them.)
func TestRecoverKeepsChecksums(t *testing.T) {
	for demo, widths := range map[string][]string{"fig1": {"4", "3"}, "fig2": {"4"}} {
		plain := vfrun(t, "-p", "4", "-demo", demo)
		dir := t.TempDir()
		sameSums(t, demo+" checkpointed run", vfrun(t, "-p", "4", "-demo", demo, "-ckpt-dir", dir), plain)
		for _, p := range widths {
			sameSums(t, demo+" recovered on "+p, vfrun(t, "-p", p, "-demo", demo, "-ckpt-dir", dir, "-recover"), plain)
		}
	}
}

// TestCorruptFaultIsCaught: a corrupt fault rule switches the CRC32C
// layer on, so the flipped payload stops the run as a named integrity
// error instead of reaching the program as a wrong value.
func TestCorruptFaultIsCaught(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-p", "4", "-demo", "fig2", "-fault", "corrupt,rank=1,every=1")
	cmd.Env = append(os.Environ(), "VFRUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "msg: payload integrity check failed") {
		t.Fatalf("err = %v, want a failed run naming the integrity check; output:\n%s", err, out)
	}
}

// TestOnlineRecoverFig2: rank 2 of the interpreted Figure 2 falls silent
// from its N-th send on; the survivors regroup, replay the last
// checkpoint and finish with the plain run's FIELD and COUNT.
func TestOnlineRecoverFig2(t *testing.T) {
	for _, n := range []string{"30", "60", "90"} {
		args := []string{"-p", "4", "-demo", "fig2", "-online-recover", "-ckpt-dir", t.TempDir(), "-fault", "drop,rank=2,after=" + n}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "VFRUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "membership: finished on epoch 1, survivors [0 1 3]") {
			t.Fatalf("vfrun %v: err = %v, want a run that regroups onto [0 1 3]; output:\n%s", args, err, out)
		}
		if sums := checksums(out); sums["FIELD"] != "491520.058944" || sums["COUNT"] != "8192.000000" {
			t.Errorf("after=%s: checksums %v, want FIELD 491520.058944 and COUNT 8192.000000", n, sums)
		}
	}
}
