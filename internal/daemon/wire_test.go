package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"atom"
)

// FuzzControlReplies feeds arbitrary bytes to every control-plane reply
// decoder: none may panic, and whatever decodes must survive a
// re-encode and decode unchanged (the status by its error kind, since
// the rebuilt error text gains the sentinel's prefix).
func FuzzControlReplies(f *testing.F) {
	info := &Info{Groups: 2, MessageSize: 32, Trap: true,
		EntryKeys: [][]byte{[]byte("key0"), []byte("key1")}, SubmitAddr: "127.0.0.1:9001"}
	f.Add(info.marshal())
	f.Add(appendRoundInfo(nil, &RoundInfo{ID: 7, TrusteeKey: []byte("trustee")}))
	f.Add(appendMessages(nil, [][]byte{[]byte("a"), {}, []byte("ccc")}))
	f.Add(appendStatus(nil, fmt.Errorf("%w: detail", atom.ErrRoundClosed)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := unmarshalInfo(data); err == nil {
			again, err := unmarshalInfo(got.marshal())
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("info %+v re-decoded as %+v (%v)", got, again, err)
			}
		}

		r := wireReader{b: data}
		if ri := r.roundInfo(); r.done() {
			r2 := wireReader{b: appendRoundInfo(nil, ri)}
			if again := r2.roundInfo(); !r2.done() || !reflect.DeepEqual(again, ri) {
				t.Fatalf("round info %+v re-decoded as %+v", ri, again)
			}
		}

		if msgs, err := unmarshalMessages(data); err == nil {
			again, err := unmarshalMessages(appendMessages(nil, msgs))
			if err != nil || !reflect.DeepEqual(again, msgs) {
				t.Fatalf("messages %q re-decoded as %q (%v)", msgs, again, err)
			}
		}

		r = wireReader{b: data}
		if status := r.status(); !r.bad {
			if again := statusRoundTrip(status); classify(again) != classify(status) {
				t.Fatalf("status %v re-decoded as %v", status, again)
			}
		}
	})
}

// FuzzFastPathParsers feeds arbitrary bytes to the server's submit
// parser and the client's ack parser, and round-trips submissions and
// verdicts derived from the input through their encoders.
func FuzzFastPathParsers(f *testing.F) {
	submit := binary.AppendUvarint(nil, 1)
	for _, v := range []uint64{1, 3, 0, 4} {
		submit = binary.AppendUvarint(submit, v)
	}
	submit = append(submit, "wire"...)
	f.Add(submit)
	f.Add(appendAcks(nil, []fpAck{{seq: 1, round: 9}, {seq: 2, err: atom.ErrDuplicateSubmission}}))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := &fastConn{}
		fb := &frameBuf{}
		if subs, ok := fc.parseSubmit(fb, data); ok {
			body := binary.AppendUvarint(nil, uint64(len(subs)))
			for _, s := range subs {
				if cap(s.wire) != len(s.wire) {
					t.Fatal("parsed wire bytes can grow into the next entry")
				}
				body = binary.AppendUvarint(body, s.seq)
				body = binary.AppendUvarint(body, uint64(s.user))
				body = binary.AppendUvarint(body, s.round)
				body = appendBytes(body, s.wire)
			}
			again, ok := fc.parseSubmit(fb, body)
			if !ok || !reflect.DeepEqual(again, subs) {
				t.Fatalf("submissions did not survive a re-encode")
			}
		}

		client := &FastClient{pending: map[uint64]func(uint64, error){}}
		client.handleAcks(data)

		// Verdicts built from the input: even bytes admit into that
		// round, odd bytes reject with the byte's error kind.
		acks := make([]fpAck, len(data))
		type verdict struct {
			round uint64
			err   error
		}
		got := make(map[uint64]verdict, len(data))
		for i, b := range data {
			acks[i] = fpAck{seq: uint64(i), round: uint64(b)}
			if b%2 == 1 {
				acks[i] = fpAck{seq: uint64(i), err: unclassify(errorKind(b>>1), "fuzzed")}
			}
			seq := uint64(i)
			client.pending[seq] = func(round uint64, err error) { got[seq] = verdict{round, err} }
		}
		if !client.handleAcks(appendAcks(nil, acks)) {
			t.Fatal("encoded acks did not parse")
		}
		for _, a := range acks {
			v, ok := got[a.seq]
			if !ok || v.round != a.round || classify(v.err) != classify(a.err) {
				t.Fatalf("ack %+v settled as %+v (delivered %v)", a, v, ok)
			}
		}
	})
}

// TestFastClientServeInfoIgnoresStaleReply runs ServeInfo against a raw
// peer that answers some requests only after the caller's deadline: the
// late reply must never be returned to the next call, whether it lands
// before that call starts or while it waits.
func TestFastClientServeInfoIgnoresStaleReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Requests 1 and 3 are answered only once the test releases them.
	release := map[uint64]chan struct{}{1: make(chan struct{}), 3: make(chan struct{})}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		readFrame := func() []byte {
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return nil
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(c, body); err != nil {
				return nil
			}
			return body
		}
		readFrame() // hello
		for n := uint64(1); ; n++ {
			req := readFrame()
			if len(req) == 0 || req[0] != fpTypeInfoReq {
				return
			}
			r := wireReader{b: req[1:]}
			id := r.uvarint()
			if ch := release[n]; ch != nil {
				<-ch
			}
			body := appendRoundInfo(binary.AppendUvarint([]byte{fpTypeInfoReply}, id), &RoundInfo{ID: n})
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
			if _, err := c.Write(append(frame, body...)); err != nil {
				return
			}
		}
	}()

	fast, err := DialFast(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	timesOut := func(n uint64) {
		t.Helper()
		ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
		defer cancel()
		if _, err := fast.ServeInfo(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: got %v, want a deadline", n, err)
		}
	}
	answers := func(n uint64) {
		t.Helper()
		ri, err := fast.ServeInfo(t.Context())
		if err != nil || ri.ID != n {
			t.Fatalf("call %d returned %+v (%v), want round %d", n, ri, err, n)
		}
	}

	// The late reply lands before the next call starts.
	timesOut(1)
	close(release[1])
	time.Sleep(50 * time.Millisecond)
	answers(2)

	// The late reply is still in flight when the next call starts.
	timesOut(3)
	close(release[3])
	answers(4)
}
