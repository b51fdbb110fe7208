package vienna

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestChangesEntrySize: the newest CHANGES.md entry — its `- PR n ·` line
// through the line before the next such line (or the end of the file),
// `FOUND:` lines included — is at most 15 lines and 2 000 bytes.  The
// change log says what a change did and where; measurements and
// explanations belong in EXPERIMENTS.md, DESIGN.md and the code.
func TestChangesEntrySize(t *testing.T) {
	const maxLines, maxBytes = 15, 2000
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^- PR \d+ ·`)
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	start := -1
	for i, l := range lines {
		if head.MatchString(l) {
			start = i
		}
	}
	if start < 0 {
		t.Fatal("CHANGES.md has no `- PR n ·` entry")
	}
	entry := lines[start:]
	if n := len(strings.Join(entry, "\n")) + 1; len(entry) > maxLines || n > maxBytes {
		t.Errorf("CHANGES.md: the newest entry (%.40s…) is %d lines and %d bytes, want at most %d and %d",
			entry[0], len(entry), n, maxLines, maxBytes)
	}
}
