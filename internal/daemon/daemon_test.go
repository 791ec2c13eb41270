package daemon

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"atom"
	"atom/internal/elgamal"
	"atom/internal/protocol"
)

func startServer(t *testing.T, variant atom.Variant) (*Server, atom.Config) {
	t.Helper()
	cfg := atom.Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: 32,
		Variant:     variant,
		Iterations:  2,
		Seed:        []byte("daemon-test"),
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, cfg
}

// submitRound encrypts msgs for users 0.. against the service's open
// round, pipelines them over the fast path pinned to that round, and
// returns the round's id.
func submitRound(t *testing.T, fast *FastClient, ac *atom.Client, info *Info, msgs []string) uint64 {
	t.Helper()
	ri, err := fast.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for u, m := range msgs {
		gid := u % info.Groups
		wire, err := ac.EncryptSubmission([]byte(m), info.EntryKeys[gid], ri.TrusteeKey, gid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := submitFast(t, fast, ri.ID, u, wire); err != nil {
			t.Fatalf("user %d into round %d: %v", u, ri.ID, err)
		}
	}
	return ri.ID
}

// dialServe starts a continuous daemon that seals each round once it
// holds batch submissions, and dials both of its surfaces.
func dialServe(t *testing.T, variant atom.Variant, batch int) (*Server, *Client, *FastClient, *Info, *atom.Client) {
	t.Helper()
	srv, cfg := startServeServer(t, variant, atom.ServeOptions{RoundInterval: time.Hour, MaxBatch: batch})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	fast := startFast(t, srv)
	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli, fast, info, ac
}

func TestDaemonEndToEndNIZK(t *testing.T) {
	_, cli, fast, info, ac := dialServe(t, atom.NIZK, 8)
	if info.Groups != 4 || info.MessageSize != 32 || info.Trap {
		t.Fatalf("unexpected info %+v", info)
	}
	if len(info.EntryKeys) != 4 || info.SubmitAddr == "" {
		t.Fatalf("%d entry keys, fast path %q", len(info.EntryKeys), info.SubmitAddr)
	}
	ri, err := fast.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.TrusteeKey) != 0 {
		t.Fatalf("NIZK round carries a trustee key: %x", ri.TrusteeKey)
	}
	want := map[string]bool{}
	var sent []string
	for u := 0; u < 8; u++ {
		msg := fmt.Sprintf("over the wire %d", u)
		want[msg] = true
		sent = append(sent, msg)
	}
	msgs, err := cli.Await(t.Context(), submitRound(t, fast, ac, info, sent))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8 {
		t.Fatalf("round returned %d messages", len(msgs))
	}
	for _, m := range msgs {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
	}
}

func TestDaemonEndToEndTrap(t *testing.T) {
	_, cli, fast, info, ac := dialServe(t, atom.Trap, 8)
	if !info.Trap {
		t.Fatalf("trap deployment not advertised: %+v", info)
	}
	ri, err := fast.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.TrusteeKey) == 0 {
		t.Fatal("trap round advertised without a trustee key")
	}
	var sent []string
	for u := 0; u < 8; u++ {
		sent = append(sent, fmt.Sprintf("trap wire %d", u))
	}
	msgs, err := cli.Await(t.Context(), submitRound(t, fast, ac, info, sent))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8 {
		t.Fatalf("round returned %d messages", len(msgs))
	}
}

func TestDaemonRejectsGarbageSubmission(t *testing.T) {
	_, _, fast, info, ac := dialServe(t, atom.NIZK, 64)
	if _, err := submitFast(t, fast, 0, 0, []byte("not a submission")); err == nil {
		t.Fatal("garbage submission accepted")
	}
	// Replay rejection over the wire.
	wire, err := ac.EncryptSubmission([]byte("once"), info.EntryKeys[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitFast(t, fast, 0, 1, wire); err != nil {
		t.Fatal(err)
	}
	if _, err := submitFast(t, fast, 0, 2, wire); err == nil {
		t.Fatal("replayed submission accepted over the wire")
	}
}

func TestDaemonMultipleRounds(t *testing.T) {
	_, cli, fast, info, ac := dialServe(t, atom.Trap, 4)
	var prevKey []byte
	for round := 0; round < 2; round++ {
		// The trustee key rotates per round: each round advertises its
		// own.
		ri, err := fast.ServeInfo(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ri.TrusteeKey, prevKey) {
			t.Fatalf("round %d reuses the previous round's trustee key", round)
		}
		prevKey = ri.TrusteeKey
		var sent []string
		for u := 0; u < 4; u++ {
			sent = append(sent, fmt.Sprintf("r%d u%d", round, u))
		}
		rid := submitRound(t, fast, ac, info, sent)
		if rid != ri.ID {
			t.Fatalf("round %d: submissions landed in round %d, ServeInfo named %d", round, rid, ri.ID)
		}
		msgs, err := cli.Await(t.Context(), rid)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(msgs) != 4 {
			t.Fatalf("round %d returned %d messages", round, len(msgs))
		}
	}
}

func TestDaemonPipelinedRounds(t *testing.T) {
	// Round r+1 opens and ingests over the wire while round r mixes:
	// the service opens the successor before it seals r, and the
	// control plane answers Await asynchronously, demultiplexing
	// replies by request id.
	_, cli, fast, info, ac := dialServe(t, atom.Trap, 4)
	r0 := submitRound(t, fast, ac, info, []string{"r0 u0", "r0 u1", "r0 u2", "r0 u3"})

	// Await round 0 concurrently…
	var wg sync.WaitGroup
	wg.Add(1)
	var mix0 [][]byte
	var mix0Err error
	go func() {
		defer wg.Done()
		mix0, mix0Err = cli.Await(t.Context(), r0)
	}()

	// …and, without waiting, submit into its successor.
	var r1 uint64
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ri, err := fast.ServeInfo(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if r1 = ri.ID; r1 != r0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d never sealed", r0)
		}
	}
	if got := submitRound(t, fast, ac, info, []string{"r1 u0", "r1 u1", "r1 u2", "r1 u3"}); got != r1 {
		t.Fatalf("round 1 submissions landed in round %d, want %d", got, r1)
	}

	wg.Wait()
	if mix0Err != nil {
		t.Fatalf("round 0: %v", mix0Err)
	}
	if len(mix0) != 4 {
		t.Fatalf("round 0 returned %d messages", len(mix0))
	}
	mix1, err := cli.Await(t.Context(), r1)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(mix1) != 4 {
		t.Fatalf("round 1 returned %d messages", len(mix1))
	}
	for _, m := range mix1 {
		if string(m)[:2] != "r1" {
			t.Fatalf("round 1 leaked message %q", m)
		}
	}
	// A sealed round takes no more submissions; the pin is checked
	// before the bytes are decoded.
	if _, err := submitFast(t, fast, r0, 9, []byte("late")); !errors.Is(err, atom.ErrRoundClosed) {
		t.Fatalf("submission into finished round %d: %v, want ErrRoundClosed", r0, err)
	}
}

// TestDaemonTypedErrorsOverWire checks both surfaces rebuild the
// typed errors: a failed round's Await reply on the control plane and
// fast-path acks.
func TestDaemonTypedErrorsOverWire(t *testing.T) {
	srv, cli, fast, info, ac := dialServe(t, atom.NIZK, 2)
	encrypt := func(msg string) []byte {
		wire, err := ac.EncryptSubmission([]byte(msg), info.EntryKeys[0], nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	t.Run("control-plane", func(t *testing.T) {
		// A malicious member of entry group 0 swaps in a rerandomized
		// copy of a ciphertext; its shuffle proof fails, and Await must
		// rebuild the round's ErrProofRejected.
		d := srv.Network().Deployment()
		pk, err := d.GroupPK(0)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAdversary(&protocol.Adversary{
			Layer: 0, GID: 0, Member: 0,
			Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
				if len(batch) < 2 {
					return nil
				}
				dup, _, err := elgamal.RerandomizeVector(pk, batch[0], rand.Reader)
				if err != nil {
					return nil
				}
				return append([]elgamal.Vector{batch[0], dup}, batch[2:]...)
			},
		})
		var round uint64
		for i, m := range []string{"tampered 0", "tampered 1"} {
			r, err := submitFast(t, fast, 0, i, encrypt(m))
			if err != nil {
				t.Fatal(err)
			}
			round = r
		}
		if _, err := cli.Await(t.Context(), round); !errors.Is(err, atom.ErrProofRejected) {
			t.Fatalf("await of a tampered round: got %v, want ErrProofRejected", err)
		}
	})

	t.Run("fast-path", func(t *testing.T) {
		if _, err := submitFast(t, fast, 0, 0, []byte("garbage")); !errors.Is(err, atom.ErrBadSubmission) {
			t.Fatalf("garbage submission: got %v, want ErrBadSubmission", err)
		}
		wire := encrypt("dup fast")
		if _, err := submitFast(t, fast, 0, 1, wire); err != nil {
			t.Fatal(err)
		}
		_, err := submitFast(t, fast, 0, 2, wire)
		if !errors.Is(err, atom.ErrDuplicateSubmission) || !errors.Is(err, atom.ErrBadSubmission) {
			t.Fatalf("replay: got %v, want ErrDuplicateSubmission (and ErrBadSubmission)", err)
		}
		if _, err := submitFast(t, fast, 1<<40, 3, encrypt("pinned")); !errors.Is(err, atom.ErrRoundClosed) {
			t.Fatalf("unknown round pin: got %v, want ErrRoundClosed", err)
		}
	})
}

// TestPersistenceErrorKindsRoundTrip pins the durable-state sentinels
// to the wire status encoding: what the server writes, the client must
// rebuild as an errors.Is match.
func TestPersistenceErrorKindsRoundTrip(t *testing.T) {
	for _, sentinel := range []error{atom.ErrStateCorrupt, atom.ErrConfigMismatch} {
		wire := fmt.Errorf("daemon: refusing join: %w", sentinel)
		if back := statusRoundTrip(wire); !errors.Is(back, sentinel) {
			t.Fatalf("wire roundtrip of %v rebuilt %v, losing the sentinel", sentinel, back)
		}
	}
}

func TestDaemonClientDeadline(t *testing.T) {
	// A request to a black-hole address must fail by the context
	// deadline instead of hanging (the old client hung forever on a
	// dead server when its fixed timeout was disabled).
	cli, err := Dial("127.0.0.1:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetTimeout(0) // disable the default bound; rely on ctx only
	ctx, cancel := context.WithTimeout(t.Context(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Info(ctx)
	if err == nil {
		t.Fatal("Info against a dead server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: took %v", elapsed)
	}
}

// startServeServer builds a daemon with the continuous ingestion
// pipeline enabled.
func startServeServer(t *testing.T, variant atom.Variant, opts atom.ServeOptions) (*Server, atom.Config) {
	t.Helper()
	cfg := atom.Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: 32,
		Variant:     variant,
		Iterations:  2,
		Seed:        []byte("daemon-serve-test"),
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableService(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, cfg
}

// startFast enables srv's fast path and dials it.
func startFast(t *testing.T, srv *Server) *FastClient {
	t.Helper()
	addr, err := srv.EnableFastPath("127.0.0.1:0", FastPathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fast.Close() })
	return fast
}

// submitFast pipelines one submission and waits for its verdict.
func submitFast(t *testing.T, fast *FastClient, round uint64, user int, wire []byte) (uint64, error) {
	t.Helper()
	type verdict struct {
		round uint64
		err   error
	}
	ch := make(chan verdict, 1)
	fast.Submit(round, user, wire, func(r uint64, err error) { ch <- verdict{r, err} })
	if err := fast.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-ch:
		return v.round, v.err
	case <-time.After(30 * time.Second):
		t.Fatal("no verdict")
		return 0, nil
	}
}

// TestDaemonIngestDuplicateAcrossPipelinedRounds exercises the dedup
// policy through the fast path: the same ciphertext submitted twice
// into round r is rejected with ErrDuplicateSubmission, while the same
// bytes into round r+1 — opened while r mixes — are accepted once
// again: the duplicate filter is per round.
func TestDaemonIngestDuplicateAcrossPipelinedRounds(t *testing.T) {
	srv, cfg := startServeServer(t, atom.NIZK, atom.ServeOptions{
		RoundInterval: time.Hour, // sealing driven by MaxBatch only
		MaxBatch:      3,
		MaxInFlight:   2,
	})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	fast := startFast(t, srv)
	ctx := context.Background()

	info, err := cli.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	encrypt := func(msg string, gid int) []byte {
		wire, err := ac.EncryptSubmission([]byte(msg), info.EntryKeys[gid], nil, gid)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	wire := encrypt("wire replay", 1)

	r1info, err := fast.ServeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := submitFast(t, fast, r1info.ID, 1, wire)
	if err != nil || admitted != r1info.ID {
		t.Fatalf("first submission into round %d: admitted=%d err=%v", r1info.ID, admitted, err)
	}
	// Replay into the same round: typed rejection through the wire.
	if _, err := submitFast(t, fast, r1info.ID, 2, wire); !errors.Is(err, atom.ErrDuplicateSubmission) {
		t.Fatalf("replay into round %d: %v, want ErrDuplicateSubmission", r1info.ID, err)
	}

	// Fill round r so it seals and r+1 opens (r still mixing or queued).
	for i := 0; i < 2; i++ {
		if _, err := submitFast(t, fast, r1info.ID, 10+i, encrypt(fmt.Sprintf("filler %d", i), (10+i)%info.Groups)); err != nil {
			t.Fatalf("filling round %d: %v", r1info.ID, err)
		}
	}
	var r2info *RoundInfo
	for deadline := time.Now().Add(10 * time.Second); ; {
		if r2info, err = fast.ServeInfo(ctx); err != nil {
			t.Fatal(err)
		}
		if r2info.ID != r1info.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d never sealed", r1info.ID)
		}
		time.Sleep(time.Millisecond)
	}

	// The same bytes into round r+1: accepted (dedup is per round).
	if _, err := submitFast(t, fast, r2info.ID, 3, wire); err != nil {
		t.Fatalf("replay into round %d: %v, want acceptance", r2info.ID, err)
	}
	// …and rejected again within r+1.
	if _, err := submitFast(t, fast, r2info.ID, 4, wire); !errors.Is(err, atom.ErrDuplicateSubmission) {
		t.Fatalf("second replay into round %d: %v, want ErrDuplicateSubmission", r2info.ID, err)
	}
	// Targeting the sealed round r fails typed over the wire.
	if _, err := submitFast(t, fast, r1info.ID, 5, wire); !errors.Is(err, atom.ErrRoundClosed) {
		t.Fatalf("submission into sealed round %d: %v, want ErrRoundClosed", r1info.ID, err)
	}

	// Fill round r+1 to its seal target so it publishes too.
	for i, m := range []string{"filler r2", "filler r2b"} {
		if _, err := submitFast(t, fast, r2info.ID, 20+i, encrypt(m, (20+i)%info.Groups)); err != nil {
			t.Fatalf("filling round %d: %v", r2info.ID, err)
		}
	}

	// Both rounds publish; the replayed plaintext appears in each —
	// accepted exactly once per round.
	for _, rid := range []uint64{r1info.ID, r2info.ID} {
		msgs, err := cli.Await(ctx, rid)
		if err != nil {
			t.Fatalf("await round %d: %v", rid, err)
		}
		if !containsMsg(msgs, "wire replay") {
			t.Errorf("round %d output %q misses the replayed plaintext", rid, msgs)
		}
	}
}

func containsMsg(msgs [][]byte, want string) bool {
	for _, m := range msgs {
		if string(m) == want {
			return true
		}
	}
	return false
}
