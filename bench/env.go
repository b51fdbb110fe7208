package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header of a suite result: what the numbers were
// measured on.  Fields that cannot be read are left empty.
type environment struct {
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	LoadAvg1   string            `json:"loadavg_1min_at_start"`
	CkptFS     string            `json:"checkpoint_fs_type"`
	Caches     map[string]string `json:"caches"`
	// Note says how to read the bandwidth figures given the caches.
	Note string `json:"note"`
}

func readEnvironment(outDir string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Caches:     map[string]string{},
		Note:       "P = 4 ranks on GOMAXPROCS cores: wall-clock scaling with P is not reported; every probe array fits the last-level cache, so bandwidths are in-cache rates over computed bytes",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1 = f[0]
		}
	}
	// The checkout is not a git repository when the driver runs it.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("lscpu").Output(); err == nil {
		for _, line := range strings.Split(string(out), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.Contains(k, "cache") {
				env.Caches[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		}
	}
	env.CkptFS = fsType(outDir)
	return env
}

// fsType names the filesystem holding dir (checkpoints are written below
// it), from the longest mount point in /proc/mounts that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return ""
	}
	best, typ := "", ""
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
