package atom

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func testNetworkConfig(v Variant, msgSize int) Config {
	return Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: msgSize,
		Variant:     v,
		Iterations:  2,
		Seed:        []byte("public-api-test"),
	}
}

// numbered returns n messages built from format and each index.
func numbered(format string, n int) []string {
	msgs := make([]string, n)
	for i := range msgs {
		msgs[i] = fmt.Sprintf(format, i)
	}
	return msgs
}

// submitAndMix opens a round on n, submits msgs[u] as user u and mixes
// the round.
func submitAndMix(t *testing.T, n *Network, msgs []string) (*Result, error) {
	t.Helper()
	ctx := context.Background()
	r, err := n.OpenRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for u, m := range msgs {
		if err := r.Submit(u, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	return r.Mix(ctx)
}

func TestPublicAPINIZKRound(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(NIZK, 32))
	if err != nil {
		t.Fatal(err)
	}
	if n.Groups() != 4 {
		t.Fatalf("Groups = %d", n.Groups())
	}
	msgs := numbered("public msg %d", 8)
	want := map[string]bool{}
	for _, m := range msgs {
		want[m] = true
	}
	res, err := submitAndMix(t, n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages, want 8", len(res.Messages))
	}
	for _, m := range res.Messages {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
	}
}

func TestPublicAPITrapRound(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := submitAndMix(t, n, numbered("trap msg %d", 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages, want 8", len(res.Messages))
	}
}

func TestPublicAPIEncodedSubmissionRoundTrip(t *testing.T) {
	// The remote-client path: Client encrypts locally, an opened round
	// accepts the wire form. Both variants.
	for _, v := range []Variant{NIZK, Trap} {
		cfg := testNetworkConfig(v, 32)
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := n.EntryKey(1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := n.OpenRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var trustee []byte
		if v == Trap {
			if trustee, err = r.TrusteeKey(); err != nil {
				t.Fatal(err)
			}
		}
		wire, err := c.EncryptSubmission([]byte("remote user"), entry, trustee, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitEncoded(7, wire); err != nil {
			t.Fatal(err)
		}
		// Replay of the same wire bytes must be rejected.
		if err := r.SubmitEncoded(8, wire); err == nil {
			t.Fatalf("variant %v: replayed submission accepted", v)
		}
		// Fill remaining groups so batches divide evenly, then mix.
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("filler %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Mix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Messages {
			if string(m) == "remote user" {
				found = true
			}
		}
		if !found {
			t.Fatalf("variant %v: remote submission lost", v)
		}
	}
}

func TestPublicAPIMicroblog(t *testing.T) {
	cfg := testNetworkConfig(Trap, MicroblogMessageSize)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMicroblog(n)
	if err != nil {
		t.Fatal(err)
	}
	posts := []string{"rally at dawn", "they are watching the bridges", "stay safe", "spread the word"}
	for u, p := range posts {
		if err := mb.Post(u, p); err != nil {
			t.Fatal(err)
		}
	}
	published, err := mb.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(published) != len(posts) {
		t.Fatalf("published %d, want %d", len(published), len(posts))
	}
	if len(mb.Board()) != len(posts) {
		t.Fatalf("board has %d posts", len(mb.Board()))
	}
	// Publish replaced the round: the next post lands in a new one.
	if err := mb.Post(0, "next round"); err != nil {
		t.Fatal(err)
	}
	next, err := mb.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0].Round == published[0].Round {
		t.Fatalf("second publish: %+v after round %d", next, published[0].Round)
	}
	if empty, err := mb.Publish(); err != nil || len(empty) != 0 {
		t.Fatalf("publish with nothing posted: %v, %v", empty, err)
	}
}

func TestPublicAPIDialing(t *testing.T) {
	cfg := testNetworkConfig(Trap, DialMessageSize)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewDialRequest(bob.Public(), alice.Public())
	if err != nil {
		t.Fatal(err)
	}
	msgs := []string{string(req)}
	// Cover traffic: other users dial each other.
	for u := 1; u < 8; u++ {
		x, _ := NewDialIdentity()
		y, _ := NewDialIdentity()
		r, err := NewDialRequest(x.Public(), y.Public())
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, string(r))
	}
	res, err := submitAndMix(t, n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := NewMailboxes(4, res)
	if err != nil {
		t.Fatal(err)
	}
	if boxes.Total() != 8 || boxes.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d", boxes.Total(), boxes.Dropped())
	}
	var got [][]byte
	for _, entry := range boxes.BoxFor(bob.MailboxID()) {
		if pk, ok := bob.OpenDialRequest(entry); ok {
			got = append(got, pk)
		}
	}
	if len(got) != 1 || string(got[0]) != string(alice.Public()) {
		t.Fatalf("Bob recovered %d keys, want Alice's", len(got))
	}
}

func TestPublicAPIDialNoise(t *testing.T) {
	noise := DialNoise{Mu: 20, Scale: 3}
	dummies, err := noise.SampleDummies()
	if err != nil {
		t.Fatal(err)
	}
	if len(dummies) < 5 || len(dummies) > 60 {
		t.Fatalf("sampled %d dummies around μ=20 (possible but ~never)", len(dummies))
	}
	for _, d := range dummies {
		if len(d) != DialRequestSize {
			t.Fatalf("dummy of %d bytes", len(d))
		}
	}
}

func TestPublicAPIFaultRecovery(t *testing.T) {
	cfg := testNetworkConfig(NIZK, 32)
	cfg.GroupSize = 4
	cfg.HonestServers = 2
	cfg.Buddies = 2
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailGroupMember(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.FailGroupMember(2, 1); err != nil {
		t.Fatal(err)
	}
	need, err := n.NeedsRecovery(2)
	if err != nil {
		t.Fatal(err)
	}
	if !need {
		t.Fatal("group 2 should need recovery")
	}
	if err := n.Recover(2, []int{50, 51}); err != nil {
		t.Fatal(err)
	}
	need, _ = n.NeedsRecovery(2)
	if need {
		t.Fatal("recovery did not restore the group")
	}
	if _, err := submitAndMix(t, n, numbered("m%d", 8)); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredGroupSizePublic(t *testing.T) {
	k, err := RequiredGroupSize(0.2, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 32 {
		t.Fatalf("k = %d, want the paper's 32", k)
	}
}

func TestEvaluationPaperModel(t *testing.T) {
	ev, err := NewEvaluation(false)
	if err != nil {
		t.Fatal(err)
	}
	t3 := ev.Table3()
	if !strings.Contains(t3, "Enc") || !strings.Contains(t3, "ShufProof") {
		t.Errorf("Table 3 output incomplete:\n%s", t3)
	}
	f9, err := ev.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9, "microblog") {
		t.Errorf("Figure 9 output incomplete:\n%s", f9)
	}
	t12, err := ev.Table12()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"Atom", "Riposte", "Vuvuzela", "Alpenhorn"} {
		if !strings.Contains(t12, sys) {
			t.Errorf("Table 12 missing %s:\n%s", sys, t12)
		}
	}
	f13, err := ev.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f13, "h") {
		t.Errorf("Figure 13 output incomplete:\n%s", f13)
	}
}

func TestPublicAPISwitchVariant(t *testing.T) {
	// §4.6: a deployment under persistent trap-variant disruption falls
	// back to NIZKs through the public API.
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	n.SwitchVariant(NIZK)
	res, err := submitAndMix(t, n, numbered("post-fallback %d", 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages after fallback", len(res.Messages))
	}
	// Rounds opened after the fallback carry no trustee key.
	r, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TrusteeKey(); !errors.Is(err, ErrVariantMismatch) {
		t.Fatalf("NIZK round trustee key: got %v, want ErrVariantMismatch", err)
	}
}

// TestSwitchVariantKeepsOpenRound checks that a round opened before
// SwitchVariant keeps its variant: Submit into it still encrypts for
// that variant, including Submit calls racing the switch, and the round
// mixes every admitted message.
func TestSwitchVariantKeepsOpenRound(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r, err := n.OpenRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const users = 8
	errs := make(chan error, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- r.Submit(u, []byte(fmt.Sprintf("pre-switch %d", u)))
		}()
	}
	n.SwitchVariant(NIZK)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Submit into the trap round across the switch: %v", err)
		}
	}
	if err := r.Submit(users, []byte("after the switch")); err != nil {
		t.Fatalf("Submit into the trap round after the switch: %v", err)
	}
	res, err := r.Mix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != users+1 {
		t.Fatalf("%d messages, want %d", len(res.Messages), users+1)
	}
	next, err := n.OpenRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.TrusteeKey(); !errors.Is(err, ErrVariantMismatch) {
		t.Fatalf("round opened after the switch: trustee key error %v, want ErrVariantMismatch", err)
	}
}

func TestConfigValidationSurfacesErrors(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewClient(Config{}); err == nil {
		t.Fatal("empty client config accepted")
	}
	cfg := testNetworkConfig(NIZK, 32)
	cfg.Topology = "torus"
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
