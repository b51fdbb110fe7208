//go:build unix

package msg

import (
	"strings"
	"syscall"
	"testing"
)

// TestTCPSendRefusesOversizedFrame: a payload the 32-bit length field
// cannot describe safely is refused with an error naming rank, peer and
// size, and nothing is written.  The payload is an untouched anonymous
// mapping, so the test commits no memory.
func TestTCPSendRefusesOversizedFrame(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, maxFrame+1, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot map %d bytes: %v", maxFrame+1, err)
	}
	defer syscall.Munmap(huge)
	ep, _ := rawEndpoint(t, nil)
	for name, send := range map[string]func() error{
		"tcp": func() error { return ep.Send(1, 7, huge) },
		// The trailer counts: three bytes under the limit plus four.
		"summed": func() error { return ep.sendGather(1, 7, gather{one: huge[:maxFrame-3], summed: true}) },
	} {
		err := send()
		if err == nil {
			t.Fatalf("%s: a payload above the frame limit was sent", name)
		}
		for _, want := range []string{"rank 0 to 1", "1073741825 bytes", "frame limit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
	if ep.t.stats.Snapshot().TotalDataMsgs() != 0 {
		t.Error("a refused send was counted")
	}
}
