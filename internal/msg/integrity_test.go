package msg

import (
	"errors"
	"testing"
	"time"
)

// TestIntegrityRoundTrip: checksummed frames arrive with the trailer
// stripped, bit-identical to what was sent, including empty frames.
func TestIntegrityRoundTrip(t *testing.T) {
	it := NewIntegrityTransport(NewChanTransport(2))
	defer it.Close()
	for _, payload := range [][]byte{
		EncodeInts([]int{1, 2, 3}),
		{0xde},
		nil, // barrier tokens and probes carry no payload
	} {
		if err := it.Endpoint(0).Send(1, 7, payload); err != nil {
			t.Fatal(err)
		}
		p, err := it.Endpoint(1).Recv(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Data) != len(payload) {
			t.Fatalf("payload %x: got %x (trailer not stripped?)", payload, p.Data)
		}
		for i := range payload {
			if p.Data[i] != payload[i] {
				t.Fatalf("payload %x corrupted to %x", payload, p.Data)
			}
		}
	}
}

// TestIntegrityDetectsBitflip: a bitflip fault plan between the sender
// and the checksum verifier surfaces as the named ErrIntegrity — and is
// treated as terminal by the retry helpers (the frame is already
// consumed; retrying cannot heal it).
func TestIntegrityDetectsBitflip(t *testing.T) {
	plan, err := ParseFaultPlan("bitflip,rank=0,count=1")
	if err != nil {
		t.Fatal(err)
	}
	it := NewIntegrityTransport(NewFaultTransport(NewChanTransport(2), plan))
	defer it.Close()
	if err := it.Endpoint(0).Send(1, 7, EncodeInts([]int{42})); err != nil {
		t.Fatal(err)
	}
	_, err = it.Endpoint(1).Recv(0, 7)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("recv of flipped frame = %v, want ErrIntegrity", err)
	}
	if !terminal(err) {
		t.Fatal("ErrIntegrity must be terminal for the retry helpers")
	}

	// The fault budget is spent; the next frame passes verification.
	if err := it.Endpoint(0).Send(1, 7, EncodeInts([]int{43})); err != nil {
		t.Fatal(err)
	}
	p, err := it.Endpoint(1).Recv(0, 7)
	if err != nil || DecodeInts(p.Data)[0] != 43 {
		t.Fatalf("clean frame after bitflip: %+v, %v", p, err)
	}
}

// TestIntegrityRecvRetrySurfacesNamedError: through the full RecvRetry
// path a corrupted frame comes back immediately as ErrIntegrity — no
// retries are burned on it.
func TestIntegrityRecvRetrySurfacesNamedError(t *testing.T) {
	plan, err := ParseFaultPlan("corrupt,rank=0,count=1")
	if err != nil {
		t.Fatal(err)
	}
	it := NewIntegrityTransport(NewFaultTransport(NewChanTransport(2), plan))
	defer it.Close()
	if err := it.Endpoint(0).Send(1, 9001, EncodeInts([]int{7})); err != nil {
		t.Fatal(err)
	}
	cfg := RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 8}
	start := time.Now()
	_, err = RecvRetry(it.Endpoint(1), cfg, nil, "recv", 0, 9001)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want wrapped ErrIntegrity", err)
	}
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Fatalf("RecvRetry burned %v retrying a terminal integrity failure", el)
	}
}

// TestIntegrityComm: collectives run unchanged over a checksummed
// transport (the CRC layer is invisible above the Endpoint interface).
func TestIntegrityComm(t *testing.T) {
	it := NewIntegrityTransport(NewChanTransport(3))
	defer it.Close()
	done := make(chan error, 3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			c := NewComm(it.Endpoint(r))
			sum, err := c.AllreduceInts([]int{r + 1}, SumInt)
			if err == nil && sum[0] != 6 {
				err = errors.New("bad allreduce over integrity transport")
			}
			done <- err
		}(r)
	}
	for r := 0; r < 3; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParseCorruptKinds: both spellings parse to FaultCorrupt.
func TestParseCorruptKinds(t *testing.T) {
	for _, spec := range []string{"corrupt,rank=1", "bitflip,rank=1"} {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !plan.HasKind(FaultCorrupt) {
			t.Fatalf("%s: plan %+v lacks FaultCorrupt", spec, plan)
		}
	}
}
