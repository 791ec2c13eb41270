package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMemNetworkBasicDelivery(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &Message{Type: "ping", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Type != "ping" || msg.From != "a" || msg.To != "b" || string(msg.Payload) != "hello" {
		t.Fatalf("unexpected message: %+v", msg)
	}
}

func TestMemNetworkUnknownDestination(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	if err := a.Send("ghost", &Message{Type: "x"}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestMemNetworkDuplicateAttach(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	if _, err := net.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("a"); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestMemNetworkCloseSemantics(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &Message{Type: "x"}); err == nil {
		t.Fatal("send to closed node succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	a.Close()
	if err := a.Send("b", &Message{Type: "x"}); err == nil {
		t.Fatal("send from closed endpoint succeeded")
	}
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("closed inbox should be drained and closed")
	}
}

func TestMemNetworkStatsAccounting(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := a.Send("b", &Message{Type: "data", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		<-b.Inbox()
	}
	sa := net.Stats("a")
	sb := net.Stats("b")
	if sa.MessagesSent != 5 {
		t.Errorf("a sent %d messages, want 5", sa.MessagesSent)
	}
	if sa.BytesSent < 500 {
		t.Errorf("a sent %d bytes, want ≥ 500", sa.BytesSent)
	}
	if sb.BytesReceived != sa.BytesSent {
		t.Errorf("received %d ≠ sent %d", sb.BytesReceived, sa.BytesSent)
	}
	if net.TotalBytes() != sa.BytesSent {
		t.Errorf("total %d ≠ %d", net.TotalBytes(), sa.BytesSent)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	const delay = 30 * time.Millisecond
	net := NewMemNetwork(UniformLatency(delay), 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	start := time.Now()
	a.Send("b", &Message{Type: "timed"})
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("message arrived after %v, want ≥ %v", elapsed, delay)
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	net := NewMemNetwork(nil, 4096)
	recv, _ := net.Attach("sink")
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Attach(fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send("sink", &Message{Type: "burst"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		select {
		case <-recv.Inbox():
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d/%d messages arrived", i, senders*per)
		}
	}
}

func TestPairwiseLatencyProperties(t *testing.T) {
	f := PairwiseLatency("seed", 40*time.Millisecond, 160*time.Millisecond)
	if f("a", "a") != 0 {
		t.Error("self-latency should be 0")
	}
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		from := fmt.Sprintf("n%d", i)
		to := fmt.Sprintf("n%d", i+1)
		d := f(from, to)
		if d < 40*time.Millisecond || d >= 160*time.Millisecond {
			t.Errorf("latency %v outside [40ms,160ms)", d)
		}
		if d != f(to, from) {
			t.Error("latency should be symmetric")
		}
		seen[d] = true
	}
	if len(seen) < 5 {
		t.Error("latencies suspiciously uniform; hashing may be broken")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), &Message{Type: "bulk", Round: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Inbox():
		if msg.Type != "bulk" || msg.Round != 3 || len(msg.Payload) != len(payload) {
			t.Fatalf("unexpected message: type=%s round=%d len=%d", msg.Type, msg.Round, len(msg.Payload))
		}
		for i := range payload {
			if msg.Payload[i] != payload[i] {
				t.Fatalf("payload corrupted at byte %d", i)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestTCPBidirectionalAndReuse(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	defer a.Close()
	b, _ := ListenTCP("127.0.0.1:0", 16)
	defer b.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), &Message{Type: "seq", Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg := <-b.Inbox()
		if msg.Round != uint64(i) {
			t.Fatalf("out of order: got round %d at position %d", msg.Round, i)
		}
	}
	// Reply path.
	if err := b.Send(a.Addr(), &Message{Type: "ack"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a.Inbox():
		if msg.Type != "ack" {
			t.Fatalf("unexpected reply %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply never arrived")
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	b, _ := ListenTCP("127.0.0.1:0", 16)
	a.Close()
	if err := a.Send(b.Addr(), &Message{Type: "x"}); err == nil {
		t.Fatal("send after close succeeded")
	}
	b.Close()
}

func TestTCPDialFailure(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	defer a.Close()
	if err := a.Send("127.0.0.1:1", &Message{Type: "x"}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

// TestMemCloseUnblocksFullInboxPush exercises the close-while-blocked
// path: a sender stuck on a full inbox must exit cleanly with ErrClosed
// when the destination closes, instead of panicking on a closed channel.
func TestMemCloseUnblocksFullInboxPush(t *testing.T) {
	net := NewMemNetwork(nil, 1)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	if err := a.Send("b", &Message{Type: "fill"}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Send("b", &Message{Type: "blocked"}) }()
	// Give the sender time to block on the full inbox, then close.
	time.Sleep(20 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked push returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push never unblocked after Close")
	}
}

// TestMemSendCtxCancellation verifies a blocked SendCtx gives up with
// the context's error.
func TestMemSendCtxCancellation(t *testing.T) {
	net := NewMemNetwork(nil, 1)
	a, _ := net.Attach("a")
	net.Attach("b")
	if err := a.Send("b", &Message{Type: "fill"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := a.SendCtx(ctx, "b", &Message{Type: "blocked"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendCtx returned %v, want DeadlineExceeded", err)
	}
}

// TestTCPFrameTooLargeWrite checks the typed error on oversized writes
// (and that the connection survives, since nothing hit the wire).
func TestTCPFrameTooLargeWrite(t *testing.T) {
	a, _ := ListenTCPOpts("127.0.0.1:0", TCPOptions{Buffer: 4, MaxFrame: 1 << 10})
	b, _ := ListenTCPOpts("127.0.0.1:0", TCPOptions{Buffer: 4, MaxFrame: 1 << 10})
	defer a.Close()
	defer b.Close()
	err := a.Send(b.Addr(), &Message{Type: "big", Payload: make([]byte, 1<<11)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send returned %v, want ErrFrameTooLarge", err)
	}
	if err := a.Send(b.Addr(), &Message{Type: "small", Payload: []byte("ok")}); err != nil {
		t.Fatalf("small send after oversized rejection: %v", err)
	}
	select {
	case msg := <-b.Inbox():
		if msg.Type != "small" {
			t.Fatalf("got %q, want the small frame", msg.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("small frame never arrived")
	}
}

// TestTCPFrameTooLargeRead checks a hostile length prefix is rejected
// before allocation: the reader's limit is lower than the writer's.
func TestTCPFrameTooLargeRead(t *testing.T) {
	b, _ := ListenTCPOpts("127.0.0.1:0", TCPOptions{Buffer: 4, MaxFrame: 256})
	defer b.Close()
	a, _ := ListenTCPOpts("127.0.0.1:0", TCPOptions{Buffer: 4, MaxFrame: 1 << 20})
	defer a.Close()
	if err := a.Send(b.Addr(), &Message{Type: "big", Payload: make([]byte, 4096)}); err != nil {
		t.Fatalf("send within the writer's limit: %v", err)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("oversized frame was delivered: %+v", msg)
	case <-time.After(150 * time.Millisecond):
		// Dropped before allocation, connection torn down: correct.
	}
}

// TestTCPCloseWithFullInbox checks Close returns while a reader is
// blocked delivering into a full inbox nobody drains.
func TestTCPCloseWithFullInbox(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), &Message{Type: "fill", Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the first frame fills the inbox; the reader then blocks
	// on the second.
	for deadline := time.Now().Add(2 * time.Second); len(b.Inbox()) < 1; {
		if time.Now().After(deadline) {
			t.Fatal("no frame arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on a reader blocked by the full inbox")
	}
}

// FuzzTCPEnvelope checks the frame decoder on arbitrary bytes (no
// panic; a decoded frame re-encodes to an identical one), that a
// length prefix above the limit fails with ErrFrameTooLarge before the
// body is read, and that encode→read round-trips every field but To,
// which the receiver fills in.
func FuzzTCPEnvelope(f *testing.F) {
	valid, _ := encodeFrame(&Message{Type: "batch", From: "127.0.0.1:9000", Round: 7, Payload: []byte("payload")}, DefaultMaxFrame)
	f.Add(valid, "batch", "127.0.0.1:9000", uint64(7), []byte("payload"))
	f.Add(valid[4:], "", "", uint64(0), []byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 'x'}, "join", "h:1", uint64(1)<<63, []byte(nil))
	f.Add([]byte{0, 0, 0, 3, 0x80, 0x80, 0x80}, "", "", uint64(0), []byte{0})
	f.Fuzz(func(t *testing.T, raw []byte, typ, from string, round uint64, payload []byte) {
		if msg, err := decodeFrame(raw); err == nil {
			frame, err := encodeFrame(msg, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("re-encoding a decoded frame: %v", err)
			}
			again, err := readFrame(bytes.NewReader(frame), DefaultMaxFrame)
			if err != nil || !sameMessage(again, msg) {
				t.Fatalf("decoded frame %+v re-read as %+v (%v)", msg, again, err)
			}
		}

		const limit = 64
		_, err := readFrame(bytes.NewReader(raw), limit)
		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > limit && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("prefix %d over a %d-byte limit: got %v, want ErrFrameTooLarge", binary.BigEndian.Uint32(raw), limit, err)
		}

		want := &Message{Type: typ, From: from, Round: round, Payload: payload}
		frame, err := encodeFrame(want, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bytes.NewReader(frame), DefaultMaxFrame)
		if err != nil || !sameMessage(got, want) {
			t.Fatalf("round trip of %+v gave %+v (%v)", want, got, err)
		}
		if _, err := encodeFrame(want, int64(len(frame)-5)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("frame one byte over the limit encoded: %v", err)
		}
	})
}

func sameMessage(a, b *Message) bool {
	return a.Type == b.Type && a.From == b.From && a.Round == b.Round && bytes.Equal(a.Payload, b.Payload)
}
