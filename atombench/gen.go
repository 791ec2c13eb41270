package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
)

// The load generator. One workload seed drives everything the program
// receives: message contents, the arrival schedule, Config.Seed and the
// client-side entropy behind every ciphertext (installed through
// atom.SetEntropySource while the submissions are pre-encrypted).
// Server-side randomness — key generation, mixing — stays the
// program's own.

// chacha returns the deterministic stream for one purpose of a seed;
// distinct purposes give independent streams.
func chacha(seed int64, purpose string) *rand.ChaCha8 {
	return rand.NewChaCha8(sha256.Sum256(fmt.Appendf(nil, "atombench/%d/%s", seed, purpose)))
}

// configSeed is the Config.Seed (group-formation beacon seed) of a run.
func configSeed(seed int64) []byte { return fmt.Appendf(nil, "atombench-%d", seed) }

// lockedReader serializes reads: atom.SetEntropySource requires a
// source safe for concurrent use.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// sub is one generated submission.
type sub struct {
	user int           // logical client; the entry group is user mod G
	msg  []byte        // plaintext, exactly MessageSize bytes
	due  time.Duration // scheduled send, as an offset from the window start
	wire []byte        // pre-encrypted submission
}

// makeSubs builds n submissions for users first..first+n−1. Every
// message is distinct — its first eight bytes are the user index in hex
// — and padded to size with seeded letters, so the published multiset
// identifies each one.
func makeSubs(seed int64, purpose string, first, n, size int) []sub {
	rng := rand.New(chacha(seed, "msgs/"+purpose))
	subs := make([]sub, n)
	for i := range subs {
		user := first + i
		msg := make([]byte, size)
		copy(msg, fmt.Sprintf("%08x", user))
		for j := 8; j < size; j++ {
			msg[j] = 'a' + byte(rng.IntN(26))
		}
		subs[i] = sub{user: user, msg: msg}
	}
	return subs
}

// poissonSchedule draws a Poisson arrival process at rate per second over
// window and returns the arrival offsets.
func poissonSchedule(seed int64, purpose string, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(chacha(seed, "arrivals/"+purpose))
	var offs []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return offs
		}
		offs = append(offs, d)
	}
}

// pregen pre-encrypts every submission — client work done before the
// clock starts — with the seed's client entropy. trusteeKey is nil for
// the NIZK variant.
func pregen(seed int64, purpose string, cfg atom.Config, entryKeys [][]byte, trusteeKey []byte, subs []sub) error {
	atom.SetEntropySource(&lockedReader{r: chacha(seed, "entropy/"+purpose)})
	defer atom.SetEntropySource(nil)
	enc, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: cfg.Groups, GroupSize: 1,
		MessageSize: cfg.MessageSize, Variant: cfg.Variant, Iterations: 1,
	})
	if err != nil {
		return err
	}
	for i := range subs {
		gid := subs[i].user % len(entryKeys)
		if subs[i].wire, err = enc.EncryptSubmission(subs[i].msg, entryKeys[gid], trusteeKey, gid); err != nil {
			return fmt.Errorf("pre-encrypting submission %d: %w", i, err)
		}
	}
	return nil
}

// verdict is what happened to one submission.
type verdict struct {
	due   time.Time // when it was due: its schedule slot (open loop) or its send (flood)
	sent  time.Time
	acked time.Time
	round uint64
	err   error
	ok    bool // a verdict arrived
}

// drive sends subs into round (0 = whichever is open) over the fast-path
// connections and waits for every verdict (nil verdicts and an error
// when some never arrive within timeout). paced sends each submission
// at start+due (open loop); otherwise each connection keeps at most
// window submissions awaiting a verdict (closed loop). Submissions are
// dealt round-robin, in due order, across the connections — one sending
// goroutine each.
func drive(fasts []*daemon.FastClient, round uint64, subs []sub, paced bool, window int, tr *tracer, timeout time.Duration) ([]verdict, time.Time, error) {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return subs[order[a]].due < subs[order[b]].due })
	vs := make([]verdict, len(subs))
	var acks sync.WaitGroup
	acks.Add(len(subs))
	start := time.Now()
	var senders sync.WaitGroup
	for c, fc := range fasts {
		senders.Add(1)
		go func(c int, fc *daemon.FastClient) {
			defer senders.Done()
			var slots chan struct{}
			if !paced {
				slots = make(chan struct{}, window)
			}
			for k := c; k < len(order); k += len(fasts) {
				i := order[k]
				if paced {
					due := start.Add(subs[i].due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					vs[i].due = due
				} else {
					slots <- struct{}{}
				}
				sent := time.Now()
				if !paced {
					vs[i].due = sent
				}
				vs[i].sent = sent
				fc.Submit(round, subs[i].user, subs[i].wire, func(r uint64, err error) {
					vs[i].acked, vs[i].round, vs[i].err, vs[i].ok = time.Now(), r, err, true
					tr.submission(i, vs[i].sent, vs[i].acked)
					if slots != nil {
						<-slots
					}
					acks.Done()
				})
				tr.submitCall(sent, time.Now(), round, subs[i].user, len(subs[i].wire))
			}
			_ = fc.Flush() // a failed flush fails the pending verdicts
		}(c, fc)
	}
	senders.Wait()
	done := make(chan struct{})
	go func() { acks.Wait(); close(done) }()
	select {
	case <-done:
		return vs, start, nil
	case <-time.After(timeout):
		// Late callbacks may still write vs, so it is not handed out.
		return nil, start, fmt.Errorf("not every verdict arrived within %v", timeout)
	}
}
