package protocol

import (
	"bytes"
	"crypto/rand"
	"reflect"
	"testing"

	"atom/internal/ecc"
)

// FuzzSubmissionDecoders runs the two submission decoders a remote user
// can reach over arbitrary bytes. Neither may panic, and whatever one
// accepts must re-encode with Encode into bytes that decode to an equal
// value.
func FuzzSubmissionDecoders(f *testing.F) {
	entry := ecc.BaseMul(ecc.NewScalar(7))
	trustee := ecc.BaseMul(ecc.NewScalar(11))
	for _, v := range []Variant{VariantNIZK, VariantTrap} {
		cfg := testConfig(v)
		c, err := NewClient(&cfg)
		if err != nil {
			f.Fatal(err)
		}
		if v == VariantNIZK {
			sub, err := c.Submit([]byte("fuzz seed"), entry, 2, rand.Reader)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(sub.Encode())
			continue
		}
		sub, err := c.SubmitTrap([]byte("fuzz seed"), entry, trustee, 1, rand.Reader)
		if err != nil {
			f.Fatal(err)
		}
		wire := sub.Encode()
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
	}
	f.Add([]byte{wireKindSubmission})
	f.Add([]byte{wireKindTrapSubmission, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if sub, err := DecodeSubmission(data); err == nil {
			wire := sub.Encode()
			again, err := DecodeSubmission(wire)
			if err != nil {
				t.Fatalf("re-encoded submission does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, sub) || !bytes.Equal(again.Encode(), wire) {
				t.Fatalf("submission changed across encode/decode")
			}
		}
		if sub, err := DecodeTrapSubmission(data); err == nil {
			wire := sub.Encode()
			again, err := DecodeTrapSubmission(wire)
			if err != nil {
				t.Fatalf("re-encoded trap submission does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, sub) || !bytes.Equal(again.Encode(), wire) {
				t.Fatalf("trap submission changed across encode/decode")
			}
		}
	})
}
