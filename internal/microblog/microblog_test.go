package microblog

import (
	"context"
	"crypto/rand"
	"strings"
	"testing"

	"atom/internal/bulletin"
	"atom/internal/protocol"
)

func testDeployment(t *testing.T, variant protocol.Variant) *protocol.Deployment {
	t.Helper()
	d, err := protocol.NewDeployment(protocol.Config{
		NumServers:  12,
		NumGroups:   4,
		GroupSize:   3,
		HonestMin:   1,
		MessageSize: MessageSize,
		Variant:     variant,
		Iterations:  2,
		Seed:        []byte("microblog-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// publishPosts submits every post as user u into a fresh round of d,
// mixes it and publishes the batch through svc.
func publishPosts(t *testing.T, d *protocol.Deployment, svc *Service, posts []string) []bulletin.Post {
	t.Helper()
	cfg := d.Config()
	c, err := protocol.NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range posts {
		if err := ValidatePost(p); err != nil {
			t.Fatal(err)
		}
		gid := u % d.NumGroups()
		pk, _ := d.GroupPK(gid)
		if cfg.Variant == protocol.VariantTrap {
			tpk, _ := rs.TrusteePK()
			sub, err := c.SubmitTrap([]byte(p), pk, tpk, gid, rand.Reader)
			if err == nil {
				err = rs.SubmitTrapUser(u, sub)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			sub, err := c.Submit([]byte(p), pk, gid, rand.Reader)
			if err == nil {
				err = rs.SubmitUser(u, sub)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := d.RunRoundCtx(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	published, err := svc.PublishResult(rs.ID(), res.Messages)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range published {
		if p.Round != rs.ID() {
			t.Fatalf("post published under round %d, want %d", p.Round, rs.ID())
		}
	}
	return published
}

func TestMicroblogRoundTrap(t *testing.T) {
	d := testDeployment(t, protocol.VariantTrap)
	svc, err := NewService(d, bulletin.NewBoard())
	if err != nil {
		t.Fatal(err)
	}
	posts := []string{
		"protest at the square, noon tomorrow",
		"leak: the ministry numbers are fabricated",
		"whistleblowing works when nobody knows who blew",
		"anonymous tip: check the harbor manifests",
	}
	published := publishPosts(t, d, svc, posts)
	if len(published) != len(posts) {
		t.Fatalf("published %d posts, want %d", len(published), len(posts))
	}
	got := map[string]bool{}
	for _, p := range published {
		got[string(p.Message)] = true
	}
	for _, p := range posts {
		if !got[p] {
			t.Errorf("post %q missing from board", p)
		}
	}
	if svc.Board().Len() != len(posts) {
		t.Errorf("board holds %d posts, want %d", svc.Board().Len(), len(posts))
	}
}

func TestMicroblogRoundNIZK(t *testing.T) {
	d := testDeployment(t, protocol.VariantNIZK)
	svc, err := NewService(d, bulletin.NewBoard())
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]string, 4)
	for u := range posts {
		posts[u] = "nizk-protected post"
	}
	if published := publishPosts(t, d, svc, posts); len(published) != 4 {
		t.Fatalf("published %d posts, want 4", len(published))
	}
}

func TestPostRejectsOversized(t *testing.T) {
	if err := ValidatePost(strings.Repeat("x", MessageSize-2)); err != nil {
		t.Fatalf("post at the size limit rejected: %v", err)
	}
	if err := ValidatePost(strings.Repeat("x", MessageSize-1)); err == nil {
		t.Fatal("oversized post accepted")
	}
	if err := ValidatePost(string([]byte{0xff, 0xfe})); err == nil {
		t.Fatal("invalid UTF-8 accepted")
	}
}

func TestNewServiceRejectsWrongMessageSize(t *testing.T) {
	d, err := protocol.NewDeployment(protocol.Config{
		NumServers:  4,
		NumGroups:   2,
		GroupSize:   2,
		MessageSize: 32, // not MessageSize
		Variant:     protocol.VariantTrap,
		Iterations:  2,
		Seed:        []byte("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(d, bulletin.NewBoard()); err == nil {
		t.Fatal("service accepted a 32-byte deployment")
	}
}
