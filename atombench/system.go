package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"atom"
	"atom/internal/daemon"
	"atom/internal/distributed"
)

// setupReps is how many times a run builds its system. setup_s is the
// median, so the first build's process-wide warm-up does not set it;
// the last build serves the workload.
const setupReps = 5

// spec describes the system a workload runs against.
type spec struct {
	cfg   atom.Config
	serve atom.ServeOptions
	// cluster mixes over a distributed.Cluster of TCP member actors on
	// loopback instead of the in-process engine.
	cluster bool
}

// system is one deployment under test: a daemon hosting the continuous
// service with its fast-path listener, the generator's connections, and
// (nizk-tcp) the member cluster doing the mixing.
type system struct {
	srv       *daemon.Server
	cluster   *distributed.Cluster
	fasts     []*daemon.FastClient
	entryKeys [][]byte
	cancel    context.CancelFunc
	published chan published // one per round the service publishes
}

// published is a round outcome stamped with the time the generator saw
// it.
type published struct {
	out atom.RoundOutcome
	at  time.Time
}

// conns is the generator's connection (and sending goroutine) count:
// one per CPU, at most four.
func conns() int { return min(max(runtime.NumCPU(), 1), 4) }

// build constructs the system from scratch up to ready-to-admit:
// deployment and keys (group formation, key generation, comb tables),
// the member cluster when the spec asks for one, the service, the
// fast-path listener and the generator's connections.
func build(sp spec, tr *tracer) (*system, error) {
	srv, err := daemon.NewServer("127.0.0.1:0", sp.cfg)
	if err != nil {
		return nil, err
	}
	s := &system{srv: srv}
	if tr != nil {
		srv.Network().SetObserver(tr.observer())
	}
	serve := sp.serve
	if sp.cluster {
		s.cluster, err = distributed.NewCluster(srv.Network().Deployment(), distributed.Options{
			Attach:      tr.wrapAttach(distributed.TCPAttach("127.0.0.1")),
			MaxInFlight: serve.MaxInFlight,
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		serve.Mixer = tr.wrapMixer(s.cluster)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := srv.EnableService(ctx, serve); err != nil {
		s.close()
		return nil, err
	}
	go srv.Serve()
	addr, err := srv.EnableFastPath("127.0.0.1:0", daemon.FastPathOptions{})
	if err != nil {
		s.close()
		return nil, err
	}
	for range conns() {
		fc, err := daemon.DialFast(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.fasts = append(s.fasts, fc)
	}
	for gid := range srv.Network().Groups() {
		key, err := srv.Network().EntryKey(gid)
		if err != nil {
			s.close()
			return nil, err
		}
		s.entryKeys = append(s.entryKeys, key)
	}
	// Drain the published stream from the start so no outcome is lost;
	// it closes when the service does. The buffer exceeds any run's
	// round count, so the forwarder never stalls and the service's lossy
	// Results stream never has to drop an outcome.
	s.published = make(chan published, 1024)
	results := srv.Service().Results()
	go func() {
		defer close(s.published)
		for out := range results {
			s.published <- published{out, time.Now()}
		}
	}()
	return s, nil
}

// buildTimed builds the system setupReps times, tearing down all but
// the last, and returns the last with every build's duration.
func buildTimed(sp spec, tr *tracer) (*system, []float64, error) {
	var (
		s     *system
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		// Only the kept system reports to the tracer.
		var t *tracer
		if i == setupReps-1 {
			t = tr
		}
		start := time.Now()
		var err error
		if s, err = build(sp, t); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			s.close()
			runtime.GC()
		}
	}
	return s, times, nil
}

// close tears the system down. It cancels the service first, so
// in-flight and open rounds are abandoned rather than mixed on the way
// out.
func (s *system) close() {
	if s.cancel != nil {
		s.cancel()
	}
	for _, fc := range s.fasts {
		_ = fc.Close()
	}
	_ = s.srv.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.published != nil {
		for range s.published {
		}
	}
}
