package main

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"atom/internal/protocol"
	"atom/internal/transport"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9}, 1.75, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// The reported tail is the highest percentile with at least ten
// samples strictly beyond its rank.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990: 10 beyond
		{9999, 99},    // rank 9990: 9 beyond 99.9
		{1000, 99},    // rank 990: 10 beyond
		{999, 95},     // rank 990: 9 beyond p99
		{400, 95},     // nizk-tcp's sample size
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parents := []span{
		{"p", 1, at(0), at(100)},
		{"p", 2, at(200), at(250)},
	}
	children := []span{
		{"c", 1, at(10), at(30)},        // overlaps the next child:
		{"c", 1, at(20), at(40)},        // together they cover 10..40
		{"c", 1, at(90), at(120)},       // clipped to 90..100
		{"c", 2, at(50), at(60)},        // another request's child: not subtracted from parent 1
		{"c", anyKey, at(60), at(65)},   // a shared child counts for every parent it overlaps
		{"c", anyKey, at(240), at(300)}, // clipped to 240..250 of parent 2
	}
	// Parent 1: 100 − (30 + 10 + 5) = 55. Parent 2: 50 − 10 = 40.
	if got, want := selfTime(parents, children), 95*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parents, nil); got != 150*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 150ms", got)
	}
}

func TestOverlapLength(t *testing.T) {
	ivs := []interval{{at(0), at(100)}, {at(50), at(150)}, {at(140), at(160)}, {at(300), at(310)}}
	// Summed 230, union 0..160 + 300..310 = 170: 60 ran concurrently.
	if got := overlapLength(ivs); got != 60*time.Millisecond {
		t.Errorf("overlapLength = %v, want 60ms", got)
	}
}

func TestBypassAssertions(t *testing.T) {
	m := map[string]metric{
		"transport.msgs":               {0, "count"},
		"distributed.replans":          {0, "count"},
		"protocol.mix.reencs":          {48000, "count"},
		"protocol.mix.proofs_verified": {0, "count"},
		"self_s.transport":             {0, "s"},
	}
	if v := bypassViolations(workloads["drain-trap"].bypassed, m); len(v) != 0 {
		t.Errorf("drain-trap: unexpected violations %v", v)
	}
	if v := bypassViolations(workloads["ingest"].bypassed, m); len(v) != 1 {
		t.Errorf("ingest with protocol.mix.reencs set: violations %v, want one", v)
	}
	m["protocol.mix.proofs_verified"] = metric{12, "count"}
	m["transport.bytes"] = metric{5, "B"}
	if v := bypassViolations(workloads["drain-trap"].bypassed, m); len(v) != 2 {
		t.Errorf("drain-trap with proofs and bytes set: violations %v, want two", v)
	}
	if v := bypassViolations(workloads["nizk-tcp"].bypassed, m); len(v) != 0 {
		t.Errorf("nizk-tcp bypasses nothing, got %v", v)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := makeSubs(7, "x", 0, 50, 30), makeSubs(7, "x", 0, 50, 30), makeSubs(8, "x", 0, 50, 30)
	same, differ := true, false
	for i := range a {
		same = same && slices.Equal(a[i].msg, b[i].msg)
		differ = differ || !slices.Equal(a[i].msg, c[i].msg)
	}
	if !same || !differ {
		t.Errorf("messages: same seed equal %v, other seed differs %v", same, differ)
	}
	s1, s2 := poissonSchedule(7, "x", 100, time.Second), poissonSchedule(7, "x", 100, time.Second)
	if !slices.Equal(s1, s2) || len(s1) == 0 {
		t.Errorf("schedules differ for one seed (%d vs %d arrivals)", len(s1), len(s2))
	}
	if slices.Equal(s1, poissonSchedule(8, "x", 100, time.Second)) {
		t.Error("schedules equal for different seeds")
	}
}

type fakeMixer struct{ rounds int }

func (f fakeMixer) MixRound(*protocol.MixJob) (*protocol.MixOutcome, error) {
	return &protocol.MixOutcome{}, nil
}
func (f fakeMixer) ConcurrentRounds() int { return f.rounds }

func TestTracedMixerKeepsPipelining(t *testing.T) {
	tr := newTracer()
	m := tr.wrapMixer(fakeMixer{rounds: 2})
	cm, ok := m.(protocol.ConcurrentMixer)
	if !ok || cm.ConcurrentRounds() != 2 {
		t.Fatalf("wrapped mixer lost ConcurrentRounds (ok=%v)", ok)
	}
	if _, err := m.MixRound(&protocol.MixJob{Round: 3}); err != nil {
		t.Fatal(err)
	}
	if s := tr.spans["distributed"]; len(s) != 1 || s[0].key != 3 {
		t.Errorf("MixRound spans = %v, want one for round 3", s)
	}
}

func TestTracedEndpointIsTransparent(t *testing.T) {
	net := transport.NewMemNetwork(nil, 4)
	tr := newTracer()
	attach := tr.wrapAttach(net.Attach)
	a, err := attach("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	inner, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	b := tracedEndpoint{inner, tr}
	if b.Inbox() != inner.Inbox() {
		t.Error("wrapper does not hand back the inner Inbox channel")
	}
	if err := a.Send("b", &transport.Message{Type: "x", Round: 5 << 8, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if msg := <-inner.Inbox(); string(msg.Payload) != "abc" {
		t.Errorf("delivered %q", msg.Payload)
	}
	// An error from the inner endpoint comes back unchanged.
	wrappedErr := a.SendCtx(context.Background(), "nobody", &transport.Message{Type: "x"})
	innerErr := inner.SendCtx(context.Background(), "nobody", &transport.Message{Type: "x"})
	if wrappedErr == nil || !errors.Is(wrappedErr, transport.ErrUnknownNode) ||
		transport.Unreachable(wrappedErr) != transport.Unreachable(innerErr) {
		t.Errorf("wrapped send error %v does not classify like the inner %v", wrappedErr, innerErr)
	}
	if tr.msgs != 2 || tr.bytes != int64(2*len("x")+len("abc")) {
		t.Errorf("recorded %d msgs, %d bytes", tr.msgs, tr.bytes)
	}
	if s := tr.spans["transport"]; len(s) != 2 || s[0].key != 5 {
		t.Errorf("transport spans = %v, want the first keyed by round 5", s)
	}
}
