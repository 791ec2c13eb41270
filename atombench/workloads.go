package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"atom"
)

// Every workload runs on 12 servers in 4 groups of 3 with T = 2 mixing
// iterations. README.md records why each workload exists and which
// layers it loads or bypasses.

func baseConfig(seed int64, v atom.Variant, msgSize int) atom.Config {
	return atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: msgSize, Variant: v, Iterations: 2,
		Seed: configSeed(seed),
	}
}

// payloadLen is the longest message a deployment carries: MessageSize
// less the two-byte length prefix of the padded plaintext. Generated
// messages fill it.
func payloadLen(cfg atom.Config) int { return cfg.MessageSize - 2 }

const (
	// ingestRate is ingest's open-loop arrival rate (msgs/s), held for
	// the first quarter of the run.
	ingestRate = 3000.0
	// ingestFloodPerSecond sizes the closed-loop flood that follows:
	// this many submissions per second of run length, sent in
	// ingestBursts bursts.
	ingestFloodPerSecond = 2000
	ingestBursts         = 10
	// floodWindow is how many submissions each connection keeps awaiting
	// a verdict during a closed-loop flood.
	floodWindow = 2048
	// maxGenLag is the generator lag (p99, behind schedule) past which an
	// open-loop run no longer offered the load it claims.
	maxGenLag = 100.0 // ms
	// tailPct is the latency percentile reported in the JSON result:
	// every workload has at least ten samples beyond it.
	tailPct = 95
)

// runIngest: NIZK submissions of 32 B into one round that never seals.
// Phase one offers an open-loop Poisson stream at ingestRate for a
// quarter of the run and times each verdict from its due time; phase
// two floods a closed loop in bursts for the admission capacity, the
// median burst rate. Nothing is mixed.
func runIngest(seed int64, seconds int, tr *tracer) (*outcome, error) {
	cfg := baseConfig(seed, atom.NIZK, 32)
	rss := startRSS()
	sys, setup, err := buildTimed(spec{cfg: cfg, serve: atom.ServeOptions{RoundInterval: time.Hour, MaxInFlight: 1}}, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close() // the open round is never mixed
	o := &outcome{setup: setup}

	offs := poissonSchedule(seed, "ingest", ingestRate, time.Duration(seconds)*time.Second/4)
	open := makeSubs(seed, "ingest-open", 0, len(offs), payloadLen(cfg))
	for i := range open {
		open[i].due = offs[i]
	}
	flood := makeSubs(seed, "ingest-flood", len(open), ingestFloodPerSecond*seconds, payloadLen(cfg))
	start := time.Now()
	if err := pregen(seed, "ingest-open", cfg, sys.entryKeys, nil, open); err != nil {
		return nil, err
	}
	if err := pregen(seed, "ingest-flood", cfg, sys.entryKeys, nil, flood); err != nil {
		return nil, err
	}
	o.pregen = time.Since(start).Seconds()
	round, _, err := sys.srv.Service().Current()
	if err != nil {
		return nil, err
	}

	runtime.GC() // start the window without the generator's garbage
	cpu0 := cpuTime()
	vs, _, err := drive(sys.fasts, 0, open, true, 0, tr, timeout)
	if err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	var rates []float64
	per := len(flood) / ingestBursts
	for b := 0; b < ingestBursts; b++ {
		burst := flood[b*per : (b+1)*per]
		bvs, _, err := drive(sys.fasts, 0, burst, false, floodWindow, tr, timeout)
		if err != nil {
			return nil, fmt.Errorf("flood burst %d: %w", b, err)
		}
		var acks []time.Time
		for _, v := range bvs {
			acks = append(acks, v.acked)
		}
		rates = append(rates, steadyRate(acks))
		vs = append(vs, bvs...)
	}
	cpu := cpuTime() - cpu0
	tr.stop()
	o.rssMB = rss.finish()

	o.attempted = len(open) + ingestBursts*per
	var lat, lag []float64
	for i, v := range vs {
		if !v.ok || v.err != nil || v.round != round {
			o.failed++
			continue
		}
		if i < len(open) {
			lat = append(lat, ms(v.acked.Sub(v.due)))
			lag = append(lag, ms(v.sent.Sub(v.due)))
		}
	}
	if o.failed > 0 {
		o.problem("ingest: %d of %d submissions were not admitted into round %d", o.failed, o.attempted, round)
	}
	o.throughput = median(rates)
	o.cpuPerMsg = ms(cpu) / float64(max(o.attempted-o.failed, 1))
	o.genLagP99 = percentile(lag, 99)
	o.latencies(lat)
	checkLag(o)
	o.report = []named{
		{"admit_capacity_msgs_per_s", "msgs/s", o.throughput},
		{"admit_p50_ms", "ms", o.p50},
		{"admit_p95_ms", "ms", o.p95},
		{"admit_p99_ms", "ms", o.p99},
		{"cpu_ms_per_msg", "ms", o.cpuPerMsg},
		{"peak_rss_mb", "MiB", o.rssMB},
		{"gen.lag_p99_ms", "ms", o.genLagP99},
	}
	o.shape = shape{
		variant: cfg.Variant, wires: wiresOf(open[:min(len(open), 512)]), entryKeys: sys.entryKeys,
		admitBatch: tr.meanAdmitBatch(), pads: sys.srv.Network().PadStats(),
	}
	return o, nil
}

const (
	// drainPerSecond sizes drain-trap: this many submissions per second
	// of run length, split over drainRounds rounds.
	drainPerSecond = 200
	drainRounds    = 3
)

// runDrainTrap: trap submissions of 32 B (two vectors each) flood a
// round, which seals at its batch cap; the in-process engine mixes it
// with no pads banked. Measures seal→publish on the big-batch online
// path, over drainRounds rounds in turn.
func runDrainTrap(seed int64, seconds int, tr *tracer) (*outcome, error) {
	cfg := baseConfig(seed, atom.Trap, 32)
	n := drainPerSecond * seconds / drainRounds
	rss := startRSS()
	sys, setup, err := buildTimed(spec{cfg: cfg, serve: atom.ServeOptions{
		RoundInterval: time.Hour, // the batch cap seals, not the clock
		MaxBatch:      n,
		MaxInFlight:   1,
	}}, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	o := &outcome{setup: setup}

	var (
		subs  []sub
		vs    []verdict
		pub   = map[uint64]published{}
		cpu   time.Duration
		rates []float64
		admit []float64
	)
	for r := 0; r < drainRounds; r++ {
		// Trap submissions bind to their round's trustee key, so each
		// round is encrypted once the previous one has published.
		round, trustee, err := sys.srv.Service().Current()
		if err != nil {
			return nil, err
		}
		rsubs := makeSubs(seed, fmt.Sprintf("drain-%d", r), r*n, n, payloadLen(cfg))
		start := time.Now()
		if err := pregen(seed, fmt.Sprintf("drain-%d", r), cfg, sys.entryKeys, trustee, rsubs); err != nil {
			return nil, err
		}
		o.pregen += time.Since(start).Seconds()

		runtime.GC()
		cpu0 := cpuTime()
		rvs, floodStart, err := drive(sys.fasts, round, rsubs, false, floodWindow, tr, timeout)
		if err != nil {
			return nil, err
		}
		rpub, err := awaitRounds(sys, map[uint64]bool{round: true})
		if err != nil {
			return nil, err
		}
		cpu += cpuTime() - cpu0
		p := rpub[round]
		pub[round] = p
		rates = append(rates, float64(len(p.out.Messages))/p.out.Stats.Drain.Seconds())
		var floodEnd time.Time
		for _, v := range rvs {
			if v.acked.After(floodEnd) {
				floodEnd = v.acked
			}
		}
		admit = append(admit, float64(n)/floodEnd.Sub(floodStart).Seconds())
		subs, vs = append(subs, rsubs...), append(vs, rvs...)
	}
	tr.stop()
	o.rssMB = rss.finish()

	o.attempted = len(subs)
	o.latencies(mixedLatencies(o, subs, vs, pub))
	o.throughput = median(rates)
	o.cpuPerMsg = ms(cpu) / float64(max(o.published, 1))
	o.report = []named{
		{"drain_msgs_per_s", "msgs/s", o.throughput},
		{"e2e_p50_ms", "ms", o.p50},
		{"e2e_p95_ms", "ms", o.p95},
		{"e2e_p99_ms", "ms", o.p99},
		{"cpu_ms_per_msg", "ms", o.cpuPerMsg},
		{"peak_rss_mb", "MiB", o.rssMB},
		{"admit_capacity_msgs_per_s", "msgs/s", median(admit)},
	}
	o.shape = shape{
		variant: cfg.Variant, wires: wiresOf(subs[:min(len(subs), 1024)]), entryKeys: sys.entryKeys,
		admitBatch: tr.meanAdmitBatch(), groupBatch: 2 * n / cfg.Groups,
		pads: sys.srv.Network().PadStats(),
	}
	return o, nil
}

const (
	// nizkTCPRate is nizk-tcp's open-loop arrival rate (msgs/s).
	nizkTCPRate = 20.0
	// nizkTCPBatch is the submission count at which a round seals.
	nizkTCPBatch = 64
)

// runNizkTCP: NIZK submissions of 160 B (six points per vector) arrive
// open-loop into a continuous service whose rounds seal at nizkTCPBatch
// (RoundInterval is only a backstop) and mix over a cluster of TCP
// member actors on loopback, two rounds in flight. At the end the
// service drains gracefully, so every message publishes.
func runNizkTCP(seed int64, seconds int, tr *tracer) (*outcome, error) {
	cfg := baseConfig(seed, atom.NIZK, 160)
	rss := startRSS()
	sys, setup, err := buildTimed(spec{cfg: cfg, cluster: true, serve: atom.ServeOptions{
		RoundInterval: 30 * time.Second,
		MaxBatch:      nizkTCPBatch,
		MaxInFlight:   2,
	}}, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	o := &outcome{setup: setup}

	// Whole rounds only: the run offers the largest multiple of the batch
	// that fits the run length at nizkTCPRate, so every round seals at
	// its batch cap and none is an artifact of the window ending.
	n := max(int(nizkTCPRate*float64(seconds))/nizkTCPBatch, 1) * nizkTCPBatch
	offs := poissonSchedule(seed, "nizk-tcp", nizkTCPRate, time.Duration(2*n/int(nizkTCPRate))*time.Second)
	if len(offs) < n {
		return nil, fmt.Errorf("arrival schedule too short: %d < %d", len(offs), n)
	}
	subs := makeSubs(seed, "nizk-tcp", 0, n, payloadLen(cfg))
	for i := range subs {
		subs[i].due = offs[i]
	}
	start := time.Now()
	if err := pregen(seed, "nizk-tcp", cfg, sys.entryKeys, nil, subs); err != nil {
		return nil, err
	}
	o.pregen = time.Since(start).Seconds()

	runtime.GC()
	cpu0 := cpuTime()
	vs, _, err := drive(sys.fasts, 0, subs, true, 0, tr, timeout)
	if err != nil {
		return nil, err
	}
	rounds := map[uint64]bool{}
	var lag, admitLat []float64
	for _, v := range vs {
		if v.ok && v.err == nil {
			rounds[v.round] = true
		}
		lag = append(lag, ms(v.sent.Sub(v.due)))
		admitLat = append(admitLat, ms(v.acked.Sub(v.due)))
	}
	// Graceful close: the open round seals and everything queued mixes
	// and publishes.
	if err := sys.srv.Service().Close(); err != nil {
		return nil, err
	}
	pub, err := awaitRounds(sys, rounds)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	tr.stop()
	o.rssMB = rss.finish()
	o.cluster = sys.cluster.Stats()

	o.attempted = len(subs)
	o.latencies(mixedLatencies(o, subs, vs, pub))
	var rates []float64
	for _, p := range pub {
		if p.out.Stats.Ingest.Admitted >= nizkTCPBatch {
			rates = append(rates, float64(len(p.out.Messages))/p.out.Stats.Drain.Seconds())
		}
	}
	if len(rates) == 0 {
		o.problem("nizk-tcp: no round reached the %d-submission batch", nizkTCPBatch)
	}
	if o.cluster.Replans != 0 || o.cluster.Rejoins != 0 {
		o.problem("nizk-tcp: cluster reported %d replans and %d rejoins", o.cluster.Replans, o.cluster.Rejoins)
	}
	o.throughput = median(rates)
	o.cpuPerMsg = ms(cpu) / float64(max(o.published, 1))
	o.genLagP99 = percentile(lag, 99)
	checkLag(o)
	o.report = []named{
		{"drain_msgs_per_s", "msgs/s", o.throughput},
		{"e2e_p50_ms", "ms", o.p50},
		{"e2e_p95_ms", "ms", o.p95},
		{"e2e_p99_ms", "ms", o.p99},
		{"cpu_ms_per_msg", "ms", o.cpuPerMsg},
		{"peak_rss_mb", "MiB", o.rssMB},
		{"admit_p50_ms", "ms", median(admitLat)},
		{"admit_p99_ms", "ms", percentile(admitLat, 99)},
		{"full_rounds", "count", float64(len(rates))},
		{"gen.lag_p99_ms", "ms", o.genLagP99},
	}
	o.shape = shape{
		variant: cfg.Variant, wires: wiresOf(subs), entryKeys: sys.entryKeys,
		admitBatch: tr.meanAdmitBatch(), groupBatch: nizkTCPBatch / cfg.Groups, nizkMix: true,
		pads: sys.srv.Network().PadStats(),
	}
	return o, nil
}

// awaitRounds collects the published outcome of every listed round.
func awaitRounds(sys *system, rounds map[uint64]bool) (map[uint64]published, error) {
	got := make(map[uint64]published, len(rounds))
	deadline := time.After(timeout)
	for len(got) < len(rounds) {
		select {
		case p, ok := <-sys.published:
			if !ok {
				return nil, fmt.Errorf("service closed with %d of %d rounds unpublished", len(rounds)-len(got), len(rounds))
			}
			if rounds[p.out.Round] {
				got[p.out.Round] = p
			}
		case <-deadline:
			return nil, fmt.Errorf("%d of %d rounds not published within %v", len(rounds)-len(got), len(rounds), timeout)
		}
	}
	return got, nil
}

// mixedLatencies applies the mixing workloads' correctness gate and
// returns each admitted submission's due→publish latency (ms). Every
// submission must be admitted, every round must publish without error,
// and the published plaintexts must be exactly the generated multiset;
// anything else counts as failed messages.
func mixedLatencies(o *outcome, subs []sub, vs []verdict, pub map[uint64]published) []float64 {
	want := map[string]int{}
	for _, s := range subs {
		want[string(s.msg)]++
	}
	var lat []float64
	rejected := 0
	for i, v := range vs {
		p, ok := pub[v.round]
		if !v.ok || v.err != nil || !ok {
			rejected++
			continue
		}
		if p.out.Err == nil {
			lat = append(lat, ms(p.at.Sub(vs[i].due)))
		}
	}
	wrong := 0
	for _, p := range pub {
		if p.out.Err != nil {
			o.problem("round %d failed: %v", p.out.Round, p.out.Err)
			wrong += p.out.Stats.Ingest.Admitted
			continue
		}
		o.published += len(p.out.Messages)
		for _, m := range p.out.Messages {
			if want[string(m)] > 0 {
				want[string(m)]--
			} else {
				wrong++
			}
		}
	}
	missing := 0
	for _, c := range want {
		missing += c
	}
	if rejected > 0 {
		o.problem("%d of %d submissions were not admitted", rejected, len(subs))
	}
	if missing > 0 || wrong > 0 {
		o.problem("published multiset differs from the generated one: %d missing, %d unexpected", missing, wrong)
	}
	o.failed = max(missing, wrong+rejected)
	return lat
}

// latencies sets the latency percentiles from lat (ms). A run fails
// when the reported tail rests on fewer than ten samples beyond it.
func (o *outcome) latencies(lat []float64) {
	o.p50, o.p95, o.p99 = median(lat), percentile(lat, tailPct), percentile(lat, 99)
	if tailPercentile(len(lat)) < tailPct {
		o.problem("p%d latency over %d samples has fewer than ten beyond it", tailPct, len(lat))
	}
}

// checkLag marks an open-loop run invalid when the generator fell
// behind its schedule.
func checkLag(o *outcome) {
	if o.genLagP99 > maxGenLag {
		o.problem("generator fell behind its schedule: lag p99 %.1f ms > %.0f ms", o.genLagP99, maxGenLag)
	}
}

// steadyRate is a closed-loop flood's admission rate over its middle:
// the verdicts between the 10th and 90th percentile of arrival, so the
// pipeline's fill and drain at either end do not count.
func steadyRate(acks []time.Time) float64 {
	if len(acks) < 10 {
		return 0
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].Before(acks[b]) })
	lo, hi := len(acks)/10, len(acks)*9/10
	return float64(hi-lo) / acks[hi].Sub(acks[lo]).Seconds()
}

func wiresOf(subs []sub) [][]byte {
	w := make([][]byte, len(subs))
	for i, s := range subs {
		w[i] = s.wire
	}
	return w
}
