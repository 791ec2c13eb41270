package main

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"atom"
	"atom/internal/distributed"
	"atom/internal/protocol"
	"atom/internal/transport"
)

// The traced run's recorder. Every span and counter is taken in this
// package, at a layer boundary the program exposes: the fast-path
// client's Submit and its verdict callbacks (daemon), the public
// Observer hooks (atom admission and scheduler, protocol iterations and
// rounds), a wrapper around the Mixer handed to ServeOptions.Mixer
// (distributed) and a wrapper around each transport.Endpoint the
// cluster attaches (transport). Nothing inside the program is
// instrumented. All methods are no-ops on a nil *tracer, which is how
// the untraced pass runs.

// anyKey marks a span that belongs to no single request (an admission
// batch verifies many submissions); it counts as a child of every
// overlapping parent.
const anyKey int64 = -1

// span is one timed interval at a layer boundary. key names the request
// it served — a submission index or a round id — so a parent's self
// time subtracts only its own children.
type span struct {
	layer      string
	key        int64
	start, end time.Time
}

// layerChildren is the span hierarchy: each layer's spans enclose the
// listed layers' spans of the same request.
var layerChildren = map[string][]string{
	"daemon":      {"atom.admit"},
	"atom.admit":  nil,
	"atom.sched":  {"protocol"},
	"protocol":    {"distributed"},
	"distributed": {"transport"},
	"transport":   nil,
}

// layerOrder fixes the order self times are reported in.
var layerOrder = []string{"daemon", "atom.admit", "atom.sched", "protocol", "distributed", "transport"}

type tracer struct {
	mu     sync.Mutex
	active bool // cleared by stop: events after the measured window are dropped
	spans  map[string][]span

	// daemon: fast-path client calls.
	subs      int
	blocked   time.Duration
	wireBytes int64

	// atom: admission batches and the round scheduler.
	batches, batchSubs, verified, admitted int
	verifyBusy                             time.Duration
	sealedAt                               map[uint64]time.Time
	roundsSealed, queuedMax, inflightMax   int
	queueWaitMs                            []float64

	// protocol: iterations and whole rounds.
	iterMs                   map[int][]float64
	finaleMs                 []float64
	workerBusy, workerSlots  time.Duration
	shuffles, reencs, proofs int

	// distributed: MixRound calls.
	mixRoundMs []float64

	// transport: endpoint sends.
	msgs     int
	bytes    int64
	sendBusy time.Duration
	sendMs   []float64
}

func newTracer() *tracer {
	return &tracer{
		active:   true,
		spans:    make(map[string][]span),
		sealedAt: make(map[uint64]time.Time),
		iterMs:   make(map[int][]float64),
	}
}

// stop ends the measured window; the teardown that follows is not
// recorded.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active = false
	t.mu.Unlock()
}

// record runs fn under the lock while the window is open.
func (t *tracer) record(fn func()) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.active {
		fn()
	}
	t.mu.Unlock()
}

func (t *tracer) addSpan(layer string, key int64, start, end time.Time) {
	t.spans[layer] = append(t.spans[layer], span{layer, key, start, end})
}

// submitCall records one FastClient.Submit call: how long it blocked,
// and the bytes its entry adds to a submit frame (sequence number,
// user, round and length uvarints plus the wire encoding; the ≤6-byte
// frame header shared by up to 32 KiB of entries is not counted).
func (t *tracer) submitCall(start, end time.Time, round uint64, user, wireLen int) {
	t.record(func() {
		t.subs++
		t.blocked += end.Sub(start)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], uint64(t.subs))
		n += binary.PutUvarint(buf[:], uint64(user))
		n += binary.PutUvarint(buf[:], round)
		n += binary.PutUvarint(buf[:], uint64(wireLen))
		t.wireBytes += int64(n + wireLen)
	})
}

// submission records one submission's daemon span: Submit to verdict.
func (t *tracer) submission(i int, sent, acked time.Time) {
	t.record(func() { t.addSpan("daemon", int64(i), sent, acked) })
}

// observer returns the public Observer hooks the traced pass installs.
func (t *tracer) observer() *atom.Observer {
	return &atom.Observer{
		AdmissionBatch: func(_ uint64, st atom.AdmitBatchStats) {
			now := time.Now()
			t.record(func() {
				t.batches++
				t.batchSubs += st.Size
				t.verified += st.Verified
				t.admitted += st.Admitted
				t.verifyBusy += st.VerifyTime
				t.addSpan("atom.admit", anyKey, now.Add(-st.VerifyTime), now)
			})
		},
		RoundSealed: func(round uint64, ing atom.IngestStats) {
			now := time.Now()
			t.record(func() {
				t.sealedAt[round] = now
				t.roundsSealed++
				t.queuedMax = max(t.queuedMax, ing.Queued)
				t.inflightMax = max(t.inflightMax, ing.InFlight)
			})
		},
		IterationDone: func(it atom.IterationStats) {
			t.record(func() { t.iterMs[it.Layer] = append(t.iterMs[it.Layer], ms(it.Duration)) })
		},
		RoundMixed: func(st atom.RoundStats) {
			now := time.Now()
			t.record(func() {
				t.shuffles += st.Shuffles
				t.reencs += st.ReEncs
				t.proofs += st.ProofsVerified
				t.workerBusy += st.WorkerBusy
				iters := time.Duration(0)
				for _, it := range st.PerIteration {
					iters += it.Duration
					t.workerSlots += time.Duration(it.Workers*it.ActiveGroups) * it.Duration
				}
				t.finaleMs = append(t.finaleMs, ms(st.Duration-iters))
				t.queueWaitMs = append(t.queueWaitMs, ms(st.Drain-st.Duration))
				key := int64(st.Round)
				if sealed, ok := t.sealedAt[st.Round]; ok {
					t.addSpan("atom.sched", key, sealed, now)
				}
				t.addSpan("protocol", key, now.Add(-st.Duration), now)
			})
		},
	}
}

// tracedMixer times each MixRound call of the Mixer it wraps. It
// forwards ConcurrentRounds: without it MixSealed would fall back to
// lock-step mixing and the pipelining under test would disappear.
type tracedMixer struct {
	inner protocol.ConcurrentMixer
	tr    *tracer
}

func (m tracedMixer) MixRound(job *protocol.MixJob) (*protocol.MixOutcome, error) {
	start := time.Now()
	out, err := m.inner.MixRound(job)
	end := time.Now()
	m.tr.record(func() {
		m.tr.mixRoundMs = append(m.tr.mixRoundMs, ms(end.Sub(start)))
		m.tr.addSpan("distributed", int64(job.Round), start, end)
	})
	return out, err
}

func (m tracedMixer) ConcurrentRounds() int { return m.inner.ConcurrentRounds() }

// tracedEndpoint times each send of the Endpoint it embeds. Inbox, Addr
// and Close are the inner endpoint's own, and send errors come back
// unchanged, so transport.Unreachable still classifies them.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e tracedEndpoint) Send(to string, msg *transport.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(to, msg)
	e.tr.send(msg, start, time.Now())
	return err
}

func (e tracedEndpoint) SendCtx(ctx context.Context, to string, msg *transport.Message) error {
	start := time.Now()
	err := e.Endpoint.SendCtx(ctx, to, msg)
	e.tr.send(msg, start, time.Now())
	return err
}

// send records one message handed to the transport: its span, keyed by
// the round it carries (the cluster stamps round<<8 | attempt), and its
// type and payload bytes.
func (t *tracer) send(msg *transport.Message, start, end time.Time) {
	t.record(func() {
		t.msgs++
		t.bytes += int64(len(msg.Type) + len(msg.Payload))
		t.sendBusy += end.Sub(start)
		t.sendMs = append(t.sendMs, ms(end.Sub(start)))
		t.addSpan("transport", int64(msg.Round>>8), start, end)
	})
}

// wrapAttach wraps every endpoint attach hands out (nil tracer: attach
// itself).
func (t *tracer) wrapAttach(attach distributed.AttachFunc) distributed.AttachFunc {
	if t == nil {
		return attach
	}
	return func(name string) (transport.Endpoint, error) {
		ep, err := attach(name)
		if err != nil {
			return nil, err
		}
		return tracedEndpoint{ep, t}, nil
	}
}

// wrapMixer wraps m (nil tracer: m itself).
func (t *tracer) wrapMixer(m protocol.ConcurrentMixer) atom.Mixer {
	if t == nil {
		return m
	}
	return tracedMixer{m, t}
}

// meanAdmitBatch is the mean admission batch size seen so far (0
// untraced).
func (t *tracer) meanAdmitBatch() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.batches == 0 {
		return 0
	}
	return float64(t.batchSubs) / float64(t.batches)
}

// layerMetrics reports the recorded per-layer metrics. published is the
// count of messages the workload published (the divisor for per-message
// transport bytes); st is the cluster's churn counters.
func (t *tracer) layerMetrics(published int, st distributed.ClusterStats) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("daemon.submit_block_ms", "ms", ms(t.blocked))
	put("daemon.wire_bytes_per_sub", "B", per(float64(t.wireBytes), float64(t.subs)))

	put("atom.admit.batches", "count", float64(t.batches))
	put("atom.admit.batch_size_mean", "count", per(float64(t.batchSubs), float64(t.batches)))
	put("atom.admit.verify_busy_s", "s", t.verifyBusy.Seconds())
	put("atom.admit.verify_us_per_sub", "us", per(float64(t.verifyBusy.Microseconds()), float64(t.verified)))
	put("atom.admit.useful_ratio", "ratio", per(float64(t.admitted), float64(t.verified)))
	put("atom.sched.rounds_sealed", "count", float64(t.roundsSealed))
	put("atom.sched.queued_max", "count", float64(t.queuedMax))
	put("atom.sched.inflight_max", "count", float64(t.inflightMax))
	put("atom.sched.queue_wait_ms", "ms", median(t.queueWaitMs))

	put("protocol.mix.iter_ms.L0", "ms", median(t.iterMs[0]))
	put("protocol.mix.iter_ms.L1", "ms", median(t.iterMs[1]))
	put("protocol.mix.finale_ms", "ms", median(t.finaleMs))
	put("protocol.mix.worker_busy_s", "s", t.workerBusy.Seconds())
	put("protocol.mix.utilization", "ratio", per(float64(t.workerBusy), float64(t.workerSlots)))
	put("protocol.mix.shuffles", "count", float64(t.shuffles))
	put("protocol.mix.reencs", "count", float64(t.reencs))
	put("protocol.mix.proofs_verified", "count", float64(t.proofs))

	var rounds []interval
	for _, s := range t.spans["distributed"] {
		rounds = append(rounds, interval{s.start, s.end})
	}
	put("distributed.mixround_ms", "ms", median(t.mixRoundMs))
	put("distributed.round_overlap_ms", "ms", ms(overlapLength(rounds)))
	put("distributed.replans", "count", float64(st.Replans))
	put("distributed.rejoins", "count", float64(st.Rejoins))

	put("transport.msgs", "count", float64(t.msgs))
	put("transport.bytes", "B", float64(t.bytes))
	put("transport.bytes_per_published_msg", "B", per(float64(t.bytes), float64(published)))
	put("transport.send_busy_s", "s", t.sendBusy.Seconds())
	put("transport.send_ms.p99", "ms", percentile(t.sendMs, 99))

	for _, layer := range layerOrder {
		var kids []span
		for _, c := range layerChildren[layer] {
			kids = append(kids, t.spans[c]...)
		}
		put("self_s."+layer, "s", selfTime(t.spans[layer], kids).Seconds())
	}
	return m
}
