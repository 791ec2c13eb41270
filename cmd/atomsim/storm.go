package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
)

// runStorm is the ingestion load generator: it simulates `clients`
// logical clients multiplexed over a handful of fast-path connections,
// pre-encrypts every submission before the measurement window opens
// (client-side crypto off the measured path), then drives the daemon's
// binary submit pipeline and reports sustained admission throughput
// plus p50/p99 admit latency.
//
// The service runs with an hour-long round interval and no batch cap,
// so the open round never seals mid-window: the measurement isolates
// the ingestion frontend — framing, multiplexing, batched proof
// verification, duplicate detection — from mixing.
//
// rate > 0 shapes arrivals to that aggregate msgs/sec target using the
// chosen process (uniform, poisson, flash); rate 0 floods: every client
// submits as fast as the pipeline accepts, the closed-loop maximum.
func runStorm(clients, conns int, rate float64, arrival string, timeout time.Duration, workers int) error {
	if clients <= 0 || conns <= 0 {
		return fmt.Errorf("storm needs positive -clients and -conns (got %d, %d)", clients, conns)
	}
	offs, err := arrivalOffsets(clients, rate, arrival)
	if err != nil {
		return err
	}

	cfg := atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: atom.NIZK, Iterations: 2,
		MixWorkers: workers,
		Seed:       []byte("atomsim-storm"),
	}
	srv, err := daemon.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Admission-plane stats through the public Observer surface.
	var (
		batchMu     sync.Mutex
		batches     int
		batchSubs   int
		batchVerify time.Duration
		batchMax    int
	)
	srv.Network().SetObserver(&atom.Observer{
		AdmissionBatch: func(_ uint64, st atom.AdmitBatchStats) {
			batchMu.Lock()
			batches++
			batchSubs += st.Size
			batchVerify += st.VerifyTime
			if st.Size > batchMax {
				batchMax = st.Size
			}
			batchMu.Unlock()
		},
	})

	// Cancel the service context before Close: the final graceful
	// rotation would otherwise seal the storm's round and mix its tens
	// of thousands of messages on the way out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.EnableService(ctx, atom.ServeOptions{
		RoundInterval: time.Hour, // never seal mid-window
		MaxInFlight:   1,
	}); err != nil {
		return err
	}
	go srv.Serve()
	addr, err := srv.EnableFastPath("127.0.0.1:0", daemon.FastPathOptions{})
	if err != nil {
		return err
	}

	shape := arrival
	if rate <= 0 {
		shape = "flood"
	}
	fmt.Printf("storm: %d logical clients over %d conns, nizk, arrival %s", clients, conns, shape)
	if rate > 0 {
		fmt.Printf(" (%.0f msgs/sec target)", rate)
	}
	fmt.Println()

	// Pre-encrypt the whole pool: one distinct submission per client.
	cli, err := daemon.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	info, err := cli.Info(ctx)
	if err != nil {
		return err
	}
	enc, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: info.Groups, GroupSize: 1,
		MessageSize: info.MessageSize, Variant: atom.NIZK, Iterations: 1,
	})
	if err != nil {
		return err
	}
	pregenStart := time.Now()
	wires := make([][]byte, clients)
	for i := range wires {
		gid := i % info.Groups
		msg := fmt.Appendf(nil, "storm %07d", i)
		if wires[i], err = enc.EncryptSubmission(msg, info.EntryKeys[gid], nil, gid); err != nil {
			return fmt.Errorf("pre-encrypting submission %d: %w", i, err)
		}
	}
	pregen := time.Since(pregenStart)
	fmt.Printf("pregen: %d encrypted submissions in %v (%.2f ms each)\n",
		clients, pregen.Round(10*time.Millisecond), pregen.Seconds()*1e3/float64(clients))

	// Partition the event stream (sorted by arrival time) round-robin
	// across the connections.
	order := make([]int, clients)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return offs[order[a]] < offs[order[b]] })
	parts := make([][]int, conns)
	for k, i := range order {
		parts[k%conns] = append(parts[k%conns], i)
	}
	fasts := make([]*daemon.FastClient, conns)
	for c := range fasts {
		if fasts[c], err = daemon.DialFast(addr); err != nil {
			return err
		}
		defer fasts[c].Close()
	}

	var (
		sendTime = make([]time.Time, clients)
		lat      = make([]time.Duration, clients)
		subErr   = make([]error, clients)
		acks     sync.WaitGroup
	)
	acks.Add(clients)
	start := time.Now()
	for c, part := range parts {
		go func(fc *daemon.FastClient, idx []int) {
			for _, i := range idx {
				if d := time.Until(start.Add(offs[i])); d > 0 {
					time.Sleep(d)
				}
				i := i
				sendTime[i] = time.Now()
				fc.Submit(0, i, wires[i], func(_ uint64, err error) {
					lat[i] = time.Since(sendTime[i])
					subErr[i] = err
					acks.Done()
				})
			}
			_ = fc.Flush()
		}(fasts[c], part)
	}
	done := make(chan struct{})
	go func() { acks.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Errorf("storm timed out: not all %d submissions acked within %v", clients, timeout)
	}
	elapsed := time.Since(start)

	admitted, rejected := 0, 0
	admitLat := make([]time.Duration, 0, clients)
	var firstErr error
	for i := range subErr {
		if subErr[i] != nil {
			rejected++
			if firstErr == nil {
				firstErr = fmt.Errorf("submission %d: %w", i, subErr[i])
			}
			continue
		}
		admitted++
		admitLat = append(admitLat, lat[i])
	}
	if rejected > 0 {
		fmt.Printf("WARNING: %d submissions rejected (first: %v)\n", rejected, firstErr)
	}
	batchMu.Lock()
	if batches > 0 {
		fmt.Printf("admission: %d batches, mean %.1f subs/batch (max %d), verify %v total\n",
			batches, float64(batchSubs)/float64(batches), batchMax, batchVerify.Round(time.Millisecond))
	}
	batchMu.Unlock()
	sort.Slice(admitLat, func(a, b int) bool { return admitLat[a] < admitLat[b] })
	if len(admitLat) > 0 {
		p50 := admitLat[len(admitLat)/2]
		p99 := admitLat[len(admitLat)*99/100]
		fmt.Printf("admit latency: p50 %.1f ms  p99 %.1f ms\n",
			float64(p50.Microseconds())/1e3, float64(p99.Microseconds())/1e3)
	}
	fmt.Printf("sustained: %.1f msgs/sec (%d admitted, %d rejected in %v)\n",
		float64(admitted)/elapsed.Seconds(), admitted, rejected, elapsed.Round(time.Millisecond))

	cancel() // hard-stop the service: skip the graceful final seal+mix
	if admitted == 0 {
		return fmt.Errorf("storm admitted nothing")
	}
	return nil
}

// arrivalOffsets builds each client's submission time offset from the
// window start. rate <= 0 means flood (all zero). The generator is
// deterministically seeded so runs are comparable.
func arrivalOffsets(n int, rate float64, mode string) ([]time.Duration, error) {
	switch mode {
	case "uniform", "poisson", "flash":
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want uniform, poisson, or flash)", mode)
	}
	offs := make([]time.Duration, n)
	if rate <= 0 {
		return offs, nil
	}
	rng := rand.New(rand.NewSource(7))
	switch mode {
	case "uniform":
		for i := range offs {
			offs[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
	case "poisson":
		var t float64
		for i := range offs {
			t += rng.ExpFloat64() / rate
			offs[i] = time.Duration(t * float64(time.Second))
		}
	case "flash":
		// A flash crowd: 70% of clients trickle at the target rate,
		// the other 30% all pile in at the window's midpoint.
		base := n * 7 / 10
		for i := 0; i < base; i++ {
			offs[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
		mid := time.Duration(float64(base) / rate / 2 * float64(time.Second))
		for i := base; i < n; i++ {
			offs[i] = mid
		}
	}
	return offs, nil
}
