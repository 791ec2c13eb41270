// Command atomclient is the user side of an atomd deployment: it
// fetches the deployment's public keys, performs all cryptography
// locally (padding, onion encryption, proof of plaintext knowledge,
// and — in the trap variant — trap generation and commitment), and
// pipelines the opaque submissions over the daemon's multiplexed fast
// path (the address Info advertises) into whichever round atomd's
// continuous service has open, re-encrypting for the successor when a
// round seals mid-batch. -await waits for the batch's rounds to publish
// and prints them. Every request is bounded by -timeout, so a dead
// daemon fails fast instead of hanging.
//
// -count replicates -submit, -submit-file reads one message per line,
// and users count up from -user:
//
//	atomclient -server host:9000 -submit "hello" -await
//	atomclient -server host:9000 -submit "load %d" -count 4096 -await
//	atomclient -server host:9000 -submit-file messages.txt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
)

func main() {
	var (
		server  = flag.String("server", "127.0.0.1:9000", "atomd address")
		user    = flag.Int("user", 0, "user id (picks the entry group: user mod G)")
		submit  = flag.String("submit", "", "message to submit")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-request deadline")
		count   = flag.Int("count", 1, "batch mode: submit this many copies of -submit (a %d in the text becomes the message index)")
		file    = flag.String("submit-file", "", "batch mode: submit every line of this file as one message")
		await   = flag.Bool("await", false, "wait for the submitted rounds to publish and print them")
	)
	flag.Parse()
	if *submit == "" && *file == "" {
		log.Fatal("atomclient: nothing to do (use -submit or -submit-file)")
	}

	ctx := context.Background()
	withDeadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, *timeout)
	}

	cli, err := daemon.Dial(*server)
	if err != nil {
		log.Fatalf("atomclient: %v", err)
	}
	defer cli.Close()

	rctx, cancel := withDeadline()
	info, err := cli.Info(rctx)
	cancel()
	if err != nil {
		log.Fatalf("atomclient: fetching deployment info: %v", err)
	}

	msgs := buildBatch(*submit, *file, *count)
	variant := atom.NIZK
	if info.Trap {
		variant = atom.Trap
	}
	// Only the fields the client-side crypto needs must match the
	// daemon; keys arrive over the wire.
	ac, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: info.Groups, GroupSize: 1,
		MessageSize: info.MessageSize, Variant: variant, Iterations: 1,
	})
	if err != nil {
		log.Fatalf("atomclient: %v", err)
	}
	published := ingestBatch(ctx, info, *server, ac, *user, msgs, *timeout)
	if !*await {
		return
	}
	for _, rid := range published {
		rctx, cancel := withDeadline()
		out, err := cli.Await(rctx, rid)
		cancel()
		if err != nil {
			log.Fatalf("atomclient: awaiting round %d: %v", rid, err)
		}
		fmt.Printf("round %d published:\n", rid)
		printMessages(out)
	}
}

// buildBatch assembles the messages of one batch submission: every line
// of -submit-file, or -count copies of -submit (a %d in the text is
// replaced by the message index so the copies stay distinct — identical
// plaintexts are legal, but identical wire submissions would never
// occur anyway since encryption is randomized).
func buildBatch(submit, file string, count int) [][]byte {
	var msgs [][]byte
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatalf("atomclient: %v", err)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			if line != "" {
				msgs = append(msgs, []byte(line))
			}
		}
		if len(msgs) == 0 {
			log.Fatalf("atomclient: %s holds no messages", file)
		}
		return msgs
	}
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		text := submit
		if strings.Contains(text, "%d") {
			text = strings.ReplaceAll(text, "%d", fmt.Sprint(i))
		} else if count > 1 {
			text = fmt.Sprintf("%s #%d", text, i)
		}
		msgs = append(msgs, []byte(text))
	}
	return msgs
}

// ingestBatch drives a batch through the daemon's multiplexed fast
// path: every message is encrypted for the open round and pipelined
// over one connection, verdicts arrive as async acks, and anything
// rejected because its round sealed mid-flight is retried against the
// successor. Returns every round id the batch landed in.
func ingestBatch(ctx context.Context, info *daemon.Info, server string, ac *atom.Client,
	base int, msgs [][]byte, timeout time.Duration) []uint64 {
	if info.SubmitAddr == "" {
		log.Fatal("atomclient: the daemon advertises no fast path")
	}
	addr := dialable(info.SubmitAddr, server)
	fc, err := daemon.DialFast(addr)
	if err != nil {
		log.Fatalf("atomclient: dialing fast path %s: %v", addr, err)
	}
	defer fc.Close()

	type item struct {
		user int
		msg  []byte
	}
	pending := make([]item, len(msgs))
	for i, m := range msgs {
		pending[i] = item{base + i, m}
	}
	var published []uint64
	for len(pending) > 0 {
		rctx, cancel := context.WithTimeout(ctx, timeout)
		ri, err := fc.ServeInfo(rctx)
		cancel()
		if err != nil {
			log.Fatalf("atomclient: fetching open round: %v", err)
		}
		errs := make([]error, len(pending))
		var wg sync.WaitGroup
		for i, it := range pending {
			gid := it.user % info.Groups
			wire, err := ac.EncryptSubmission(it.msg, info.EntryKeys[gid], ri.TrusteeKey, gid)
			if err != nil {
				log.Fatalf("atomclient: encrypting for user %d: %v", it.user, err)
			}
			wg.Add(1)
			fc.Submit(ri.ID, it.user, wire, func(_ uint64, err error) {
				errs[i] = err
				wg.Done()
			})
		}
		if err := fc.Flush(); err != nil {
			log.Fatalf("atomclient: fast path flush: %v", err)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout * time.Duration(len(pending))):
			log.Fatalf("atomclient: fast path acks never arrived for round %d", ri.ID)
		}
		admitted := 0
		var retry []item
		for i, e := range errs {
			switch {
			case e == nil:
				admitted++
			case errors.Is(e, atom.ErrRoundClosed):
				retry = append(retry, pending[i])
			default:
				log.Fatalf("atomclient: user %d rejected: %v", pending[i].user, e)
			}
		}
		if admitted > 0 {
			// Submissions are pinned, so every admission is into ri.
			published = append(published, ri.ID)
			fmt.Printf("submitted %d message(s) into round %d\n", admitted, ri.ID)
		}
		pending = retry
	}
	return published
}

// dialable resolves an advertised listener address: one bound to every
// interface names no host, so it is reached at the daemon's own host.
func dialable(advertised, server string) string {
	host, port, err := net.SplitHostPort(advertised)
	shost, _, serr := net.SplitHostPort(server)
	if err != nil || serr != nil || (host != "" && !net.ParseIP(host).IsUnspecified()) {
		return advertised
	}
	return net.JoinHostPort(shost, port)
}

func printMessages(msgs [][]byte) {
	fmt.Printf("round complete — %d anonymized messages:\n", len(msgs))
	for _, m := range msgs {
		fmt.Printf("  %s\n", m)
	}
}
