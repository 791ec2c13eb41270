package daemon

import (
	"encoding/binary"
	"fmt"
)

// The daemon's one binary codec. Every field is a uvarint or a
// uvarint-length-prefixed byte string; control-plane replies and
// fast-path acks carry their verdict as a status (appendStatus), so
// both rebuild the same typed errors from one encoding.

// appendBytes appends v as a uvarint length followed by its bytes.
func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendStatus appends err's wire form: its errorKind and, for a
// failure, the length-prefixed error text. wireReader.status reverses
// it.
func appendStatus(b []byte, err error) []byte {
	kind := classify(err)
	b = binary.AppendUvarint(b, uint64(kind))
	if kind != errNone {
		b = appendBytes(b, []byte(err.Error()))
	}
	return b
}

// wireReader decodes fields off the front of a byte slice. The first
// malformed field marks it bad; every later read then returns zero, so
// a decoder checks bad once at the end.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed field. The result aliases the input.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// count reads an element count, rejecting one the remaining input
// cannot hold (every element takes at least one byte) before the
// caller allocates for it.
func (r *wireReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return 0
	}
	return int(n)
}

// status reads what appendStatus wrote and rebuilds the typed error.
func (r *wireReader) status() error {
	kind := errorKind(r.uvarint())
	if kind == errNone {
		return nil
	}
	return unclassify(kind, string(r.bytes()))
}

// done reports whether every field decoded and nothing trails.
func (r *wireReader) done() bool { return !r.bad && len(r.b) == 0 }

// marshal encodes an info reply body: groups ‖ message size ‖ trap
// (0 or 1) ‖ count ‖ {len ‖ entry key}×count ‖ len ‖ submit address.
func (i *Info) marshal() []byte {
	trap := uint64(0)
	if i.Trap {
		trap = 1
	}
	b := binary.AppendUvarint(nil, uint64(i.Groups))
	b = binary.AppendUvarint(b, uint64(i.MessageSize))
	b = binary.AppendUvarint(b, trap)
	b = binary.AppendUvarint(b, uint64(len(i.EntryKeys)))
	for _, k := range i.EntryKeys {
		b = appendBytes(b, k)
	}
	return appendBytes(b, []byte(i.SubmitAddr))
}

func unmarshalInfo(b []byte) (*Info, error) {
	r := wireReader{b: b}
	info := &Info{
		Groups:      int(r.uvarint()),
		MessageSize: int(r.uvarint()),
		Trap:        r.uvarint() != 0,
	}
	info.EntryKeys = make([][]byte, r.count())
	for i := range info.EntryKeys {
		info.EntryKeys[i] = r.bytes()
	}
	info.SubmitAddr = string(r.bytes())
	if !r.done() || info.Groups < 1 || info.Groups != len(info.EntryKeys) {
		return nil, fmt.Errorf("daemon: malformed info reply")
	}
	return info, nil
}

// appendRoundInfo appends round ‖ len ‖ trustee key — the tail of the
// fast path's info-reply.
func appendRoundInfo(b []byte, ri *RoundInfo) []byte {
	b = binary.AppendUvarint(b, ri.ID)
	return appendBytes(b, ri.TrusteeKey)
}

func (r *wireReader) roundInfo() *RoundInfo {
	ri := &RoundInfo{ID: r.uvarint()}
	if key := r.bytes(); len(key) > 0 {
		ri.TrusteeKey = append([]byte(nil), key...)
	}
	return ri
}

// appendMessages appends count ‖ {len ‖ message}×count — the await
// reply body.
func appendMessages(b []byte, msgs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = appendBytes(b, m)
	}
	return b
}

func unmarshalMessages(b []byte) ([][]byte, error) {
	r := wireReader{b: b}
	msgs := make([][]byte, r.count())
	for i := range msgs {
		msgs[i] = r.bytes()
	}
	if !r.done() {
		return nil, fmt.Errorf("daemon: malformed message list")
	}
	return msgs, nil
}
