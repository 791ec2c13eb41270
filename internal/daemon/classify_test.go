package daemon

import (
	"errors"
	"fmt"
	"testing"

	"atom"
)

// statusRoundTrip sends err through the wire status encoding that
// control-plane replies and fast-path acks share.
func statusRoundTrip(err error) error {
	r := wireReader{b: appendStatus(nil, err)}
	back := r.status()
	if !r.done() {
		return fmt.Errorf("status encoding of %v did not decode", err)
	}
	return back
}

// TestErrorKindRoundTrip drives every sentinel with a dedicated wire
// kind through the status encoding and back: the client-side rebuild
// must satisfy errors.Is for the same sentinel (and, via the sentinel
// wrapping, its taxonomy parents), so a daemon hop never downgrades a
// typed error to a bare string.
func TestErrorKindRoundTrip(t *testing.T) {
	sentinels := []error{
		atom.ErrBadSubmission,
		atom.ErrDuplicateSubmission,
		atom.ErrRoundClosed,
		atom.ErrRoundAborted,
		atom.ErrTrapTripped,
		atom.ErrProofRejected,
		atom.ErrRecoveryNeeded,
		atom.ErrVariantMismatch,
		atom.ErrNoSuchGroup,
		atom.ErrStateCorrupt,
		atom.ErrConfigMismatch,
		atom.ErrSetupFailed,
		atom.ErrDKGInsufficient,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("%w: some detail", sentinel)
		kind := classify(wrapped)
		if kind == errGeneric || kind == errNone {
			t.Errorf("%v classified as generic/none", sentinel)
			continue
		}
		rebuilt := statusRoundTrip(wrapped)
		if !errors.Is(rebuilt, sentinel) {
			t.Errorf("unclassify(classify(%v)) = %v, loses the sentinel", sentinel, rebuilt)
		}
	}
	// ErrMemberLost has no dedicated kind; it must still cross the wire
	// as its typed ErrRoundAborted parent, never as a generic error.
	lost := fmt.Errorf("%w: server 7", atom.ErrMemberLost)
	rebuilt := statusRoundTrip(lost)
	if !errors.Is(rebuilt, atom.ErrRoundAborted) {
		t.Errorf("member-lost error crossed the wire untyped: %v", rebuilt)
	}
	if back := statusRoundTrip(nil); back != nil {
		t.Errorf("success crossed the wire as %v", back)
	}
}

// TestSetupErrorKindsSpecific pins the new setup kinds: the
// insufficient-participants case must keep its specific identity across
// the wire, not collapse into the generic setup failure.
func TestSetupErrorKindsSpecific(t *testing.T) {
	insufficient := fmt.Errorf("%w: 2 of 5 qualified", atom.ErrDKGInsufficient)
	if classify(insufficient) != errDKGInsufficient {
		t.Fatalf("ErrDKGInsufficient classified as %d", classify(insufficient))
	}
	rebuilt := unclassify(classify(insufficient), insufficient.Error())
	if !errors.Is(rebuilt, atom.ErrDKGInsufficient) || !errors.Is(rebuilt, atom.ErrSetupFailed) {
		t.Fatalf("rebuilt insufficient error %v loses its taxonomy branch", rebuilt)
	}

	setup := fmt.Errorf("%w: group 3 ceremony aborted", atom.ErrSetupFailed)
	if classify(setup) != errSetupFailed {
		t.Fatalf("ErrSetupFailed classified as %d", classify(setup))
	}
	rebuilt = unclassify(classify(setup), setup.Error())
	if !errors.Is(rebuilt, atom.ErrSetupFailed) || errors.Is(rebuilt, atom.ErrDKGInsufficient) {
		t.Fatalf("rebuilt setup error %v has the wrong specificity", rebuilt)
	}
}
