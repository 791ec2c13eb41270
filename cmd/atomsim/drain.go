package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
	"atom/internal/distributed"
	"atom/internal/transport"
)

// runDrain measures the other half of the pipeline that -storm leaves
// out: how fast a sealed round drains. It floods one round with
// -clients pre-encrypted trap submissions over the fast path, lets the
// batch cap seal the round the instant the last admission lands, and
// times seal→publish — the paper's offline/online question: with the
// re-encryption pads banked during admission (-prewarm) or the group
// chains chunk-streamed over the memnet (-drain-memnet -chunk), does
// the sealed batch drain at admission speed?
//
// The trap variant is the honest subject here: its online path is pure
// mixing (shuffle rerandomization + decrypt-and-reencrypt chains, no
// per-step NIZKs), which is exactly the work the pads move offline.
//
// Reported lines (greppable, consumed by scripts/bench.sh):
//
//	drain: <msgs/sec> msgs/sec seal→publish (...)
//	e2e latency: p50 <ms> ms  p99 <ms> ms      (submit→publish per message)
//	pads: size=<n> hits=<n> misses=<n>
func runDrain(clients, conns, workers, prewarm, chunk int, memnet bool, wanMin, wanMax time.Duration, timeout time.Duration) error {
	if clients <= 0 || conns <= 0 {
		return fmt.Errorf("drain needs positive -clients and -conns (got %d, %d)", clients, conns)
	}
	cfg := atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: atom.Trap, Iterations: 2,
		MixWorkers: workers,
		Seed:       []byte("atomsim-drain"),
	}
	srv, err := daemon.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	var sealedAt time.Time
	srv.Network().SetObserver(&atom.Observer{
		RoundSealed: func(round uint64, ing atom.IngestStats) {
			sealedAt = time.Now()
			fmt.Printf("round %d sealed: %d admitted, %d ciphertexts\n", round, ing.Admitted, ing.SealedBatch)
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	mixer := "in-process"
	opts := atom.ServeOptions{
		RoundInterval: time.Hour, // the batch cap seals, not the clock
		MaxBatch:      clients,
		MaxInFlight:   1,
		Prewarm:       prewarm,
	}
	if memnet {
		net := transport.NewMemNetwork(transport.PairwiseLatency("atomsim-drain", wanMin, wanMax), 256)
		cluster, cerr := distributed.NewCluster(srv.Network().Deployment(), distributed.Options{
			Attach:    distributed.MemAttach(net),
			Workers:   workers,
			ChunkSize: chunk,
		})
		if cerr != nil {
			return cerr
		}
		defer cluster.Close()
		opts.Mixer = cluster
		mixer = fmt.Sprintf("memnet %v–%v chunk %d", wanMin, wanMax, chunk)
	}
	if err := srv.EnableService(ctx, opts); err != nil {
		return err
	}
	go srv.Serve()
	addr, err := srv.EnableFastPath("127.0.0.1:0", daemon.FastPathOptions{})
	if err != nil {
		return err
	}

	fmt.Printf("drain: %d clients over %d conns, trap, mixer %s, prewarm %d\n", clients, conns, mixer, prewarm)

	// The offline phase: bank pads for the expected batch before the
	// window opens — between rounds this time is free (the continuous
	// service tops the bank up after every seal; ServeOptions.Prewarm
	// keeps doing that live). Pads only feed the in-process mixer.
	if prewarm > 0 && !memnet {
		offStart := time.Now()
		if err := srv.Network().Deployment().Prewarm(ctx, prewarm); err != nil {
			return err
		}
		ps := srv.Network().PadStats()
		fmt.Printf("offline: banked %d pads in %v\n", ps.Size, time.Since(offStart).Round(time.Millisecond))
	}

	// Pre-encrypt the whole batch against the open round's trustee key
	// (trap submissions bind to the round), client crypto off the clock.
	cli, err := daemon.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	info, err := cli.Info(ctx)
	if err != nil {
		return err
	}
	fasts := make([]*daemon.FastClient, conns)
	for c := range fasts {
		if fasts[c], err = daemon.DialFast(addr); err != nil {
			return err
		}
		defer fasts[c].Close()
	}
	ri, err := fasts[0].ServeInfo(ctx)
	if err != nil {
		return err
	}
	enc, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: info.Groups, GroupSize: 1,
		MessageSize: info.MessageSize, Variant: atom.Trap, Iterations: 1,
	})
	if err != nil {
		return err
	}
	pregenStart := time.Now()
	wires := make([][]byte, clients)
	for i := range wires {
		gid := i % info.Groups
		msg := fmt.Appendf(nil, "drain %07d", i)
		if wires[i], err = enc.EncryptSubmission(msg, info.EntryKeys[gid], ri.TrusteeKey, gid); err != nil {
			return fmt.Errorf("pre-encrypting submission %d: %w", i, err)
		}
	}
	fmt.Printf("pregen: %d trap submissions in %v\n", clients, time.Since(pregenStart).Round(10*time.Millisecond))

	// Flood: the last admission trips the batch cap and seals the round,
	// so admission speed sets the drain's starting line.
	var (
		sendTime = make([]time.Time, clients)
		subErr   = make([]error, clients)
		acks     sync.WaitGroup
	)
	acks.Add(clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int, fc *daemon.FastClient) {
			defer wg.Done()
			for i := c; i < clients; i += conns {
				i := i
				sendTime[i] = time.Now()
				fc.Submit(ri.ID, i, wires[i], func(_ uint64, err error) {
					subErr[i] = err
					acks.Done()
				})
			}
			_ = fc.Flush()
		}(c, fasts[c])
	}
	wg.Wait()
	acked := make(chan struct{})
	go func() { acks.Wait(); close(acked) }()
	select {
	case <-acked:
	case <-time.After(timeout):
		return fmt.Errorf("drain timed out: not all %d submissions acked within %v", clients, timeout)
	}
	admitTime := time.Since(start)

	rejected := 0
	var firstErr error
	for i, e := range subErr {
		if e != nil {
			rejected++
			if firstErr == nil {
				firstErr = fmt.Errorf("submission %d: %w", i, e)
			}
		}
	}
	if rejected > 0 {
		fmt.Printf("WARNING: %d submissions rejected (first: %v)\n", rejected, firstErr)
	}
	fmt.Printf("admitted: %d of %d in %v (%.1f msgs/sec admission)\n",
		clients-rejected, clients, admitTime.Round(time.Millisecond), float64(clients-rejected)/admitTime.Seconds())

	// The sealed round is mixing; wait for publication.
	wctx, wcancel := context.WithTimeout(ctx, timeout)
	defer wcancel()
	out, err := srv.Service().WaitRound(wctx, ri.ID)
	if err != nil {
		return fmt.Errorf("awaiting round %d: %w", ri.ID, err)
	}
	if out.Err != nil {
		return fmt.Errorf("round %d failed: %w", ri.ID, out.Err)
	}
	published := time.Now()

	// Submit→publish latency per message: every admitted submission
	// publishes at the same instant, so the spread is admission order.
	e2e := make([]time.Duration, 0, clients)
	for i := range sendTime {
		if subErr[i] == nil {
			e2e = append(e2e, published.Sub(sendTime[i]))
		}
	}
	sort.Slice(e2e, func(a, b int) bool { return e2e[a] < e2e[b] })

	drain := out.Stats.Drain
	if drain <= 0 && !sealedAt.IsZero() {
		drain = published.Sub(sealedAt)
	}
	fmt.Printf("drain: %.1f msgs/sec seal→publish (%d msgs drained in %v, mixing %v)\n",
		float64(out.Stats.Messages)/drain.Seconds(), out.Stats.Messages,
		drain.Round(time.Millisecond), out.Stats.Duration.Round(time.Millisecond))
	if len(e2e) > 0 {
		fmt.Printf("e2e latency: p50 %.1f ms  p99 %.1f ms\n",
			float64(e2e[len(e2e)/2].Microseconds())/1e3, float64(e2e[len(e2e)*99/100].Microseconds())/1e3)
	}
	ps := srv.Network().PadStats()
	fmt.Printf("pads: size=%d hits=%d misses=%d\n", ps.Size, ps.Hits, ps.Misses)

	cancel() // skip the graceful final rotation on the way out
	if out.Stats.Messages == 0 {
		return fmt.Errorf("drain published no messages")
	}
	return nil
}
