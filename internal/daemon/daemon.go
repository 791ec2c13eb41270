// Package daemon serves an Atom deployment over TCP: remote clients
// fetch the deployment's public keys and the open round, perform all
// cryptography locally (padding, onion encryption, NIZKs, traps), ship
// opaque wire submissions, and read each round's anonymized results.
// The rounds themselves are run by a continuous atom.Service
// (EnableService), which opens, seals and mixes them on its own
// schedule. cmd/atomd and cmd/atomclient are thin wrappers around this
// package.
//
// The daemon speaks two surfaces, both in one binary codec (wire.go).
// Submissions ride the multiplexed fast path (fastpath.go, FastClient):
// ServeInfo names the open round and its trustee key, Submit pipelines
// wire submissions into it and acks each one. The control plane is
// request/reply over transport.TCPNode: Info for the deployment's keys
// and the fast path's address, and Await for a round's published
// messages. Every client method takes a context.Context whose deadline
// bounds the round trip, so a dead server fails the call instead of
// hanging it. Both surfaces rebuild the atom error taxonomy on the
// client.
//
// The daemon hosts the full multi-group deployment in one process —
// the configuration the paper's single-machine experiments use. The
// wire protocol is the package's contribution; scaling the groups out
// across machines reuses the same transport.
package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atom"
	"atom/internal/transport"
)

// Request types of the control plane; each reply's type is the
// request's with "-reply" appended. Await is active only after
// EnableService.
const (
	msgInfo  = "info"
	msgAwait = "await"
)

// Info describes a deployment to clients.
type Info struct {
	Groups      int
	MessageSize int
	Trap        bool
	EntryKeys   [][]byte
	// SubmitAddr is the fast-path listener's address, empty until
	// EnableFastPath.
	SubmitAddr string
}

// RoundInfo describes the continuous service's open round, as the fast
// path's ServeInfo reports it.
type RoundInfo struct {
	// ID is the server-assigned round id, passed to FastClient.Submit
	// and Await.
	ID uint64
	// TrusteeKey is the round's trustee public key (trap variant only);
	// submissions into this round must be encrypted against it.
	TrusteeKey []byte
}

// errorKind classifies server-side errors so clients can rebuild the
// atom error taxonomy across the wire, where error chains cannot go.
type errorKind int

const (
	errNone errorKind = iota
	errGeneric
	errBadSubmission
	errDuplicate
	errRoundClosed
	errRoundAborted
	errTrapTripped
	errProofRejected
	errRecoveryNeeded
	errVariantMismatch
	errNoSuchGroup
	errStateCorrupt
	errConfigMismatch
	errSetupFailed
	errDKGInsufficient
)

// classify maps an error to its wire kind.
func classify(err error) errorKind {
	if err == nil {
		return errNone
	}
	switch {
	case errors.Is(err, atom.ErrDuplicateSubmission):
		return errDuplicate
	case errors.Is(err, atom.ErrBadSubmission):
		return errBadSubmission
	case errors.Is(err, atom.ErrRoundClosed):
		return errRoundClosed
	case errors.Is(err, atom.ErrTrapTripped):
		return errTrapTripped
	case errors.Is(err, atom.ErrProofRejected):
		return errProofRejected
	case errors.Is(err, atom.ErrRecoveryNeeded):
		return errRecoveryNeeded
	case errors.Is(err, atom.ErrRoundAborted):
		return errRoundAborted
	case errors.Is(err, atom.ErrVariantMismatch):
		return errVariantMismatch
	case errors.Is(err, atom.ErrNoSuchGroup):
		return errNoSuchGroup
	case errors.Is(err, atom.ErrStateCorrupt):
		return errStateCorrupt
	case errors.Is(err, atom.ErrConfigMismatch):
		return errConfigMismatch
	case errors.Is(err, atom.ErrDKGInsufficient):
		// Before the ErrSetupFailed parent so the specific kind wins.
		return errDKGInsufficient
	case errors.Is(err, atom.ErrSetupFailed):
		return errSetupFailed
	default:
		return errGeneric
	}
}

// unclassify rebuilds a typed client-side error from the wire kind.
func unclassify(kind errorKind, msg string) error {
	msg = strings.TrimPrefix(msg, "daemon: ")
	wrap := func(sentinel error) error {
		// The server-side message usually begins with the sentinel's own
		// text; trim it so the rebuilt error reads once, not twice.
		trimmed := strings.TrimPrefix(strings.TrimPrefix(msg, sentinel.Error()), ": ")
		if trimmed == "" {
			return fmt.Errorf("%w (daemon)", sentinel)
		}
		return fmt.Errorf("%w: daemon: %s", sentinel, trimmed)
	}
	switch kind {
	case errDuplicate:
		return wrap(atom.ErrDuplicateSubmission)
	case errBadSubmission:
		return wrap(atom.ErrBadSubmission)
	case errRoundClosed:
		return wrap(atom.ErrRoundClosed)
	case errTrapTripped:
		return wrap(atom.ErrTrapTripped)
	case errProofRejected:
		return wrap(atom.ErrProofRejected)
	case errRecoveryNeeded:
		return wrap(atom.ErrRecoveryNeeded)
	case errRoundAborted:
		return wrap(atom.ErrRoundAborted)
	case errVariantMismatch:
		return wrap(atom.ErrVariantMismatch)
	case errNoSuchGroup:
		return wrap(atom.ErrNoSuchGroup)
	case errStateCorrupt:
		return wrap(atom.ErrStateCorrupt)
	case errConfigMismatch:
		return wrap(atom.ErrConfigMismatch)
	case errSetupFailed:
		return wrap(atom.ErrSetupFailed)
	case errDKGInsufficient:
		return wrap(atom.ErrDKGInsufficient)
	default:
		return fmt.Errorf("daemon: %s", msg)
	}
}

// Server hosts a deployment behind a TCP endpoint.
type Server struct {
	node    *transport.TCPNode
	network *atom.Network
	cfg     atom.Config

	// svc, when non-nil, is the continuous ingestion-and-mixing
	// pipeline that fast-path submissions and Await target.
	svc atomic.Pointer[atom.Service]

	// fast, when non-nil, is the binary multiplexed ingestion listener
	// (see EnableFastPath).
	fast *fastPath

	awaits sync.WaitGroup
	done   chan struct{}
}

// NewServer builds the deployment and starts listening on addr
// (":0" for an ephemeral port).
func NewServer(addr string, cfg atom.Config) (*Server, error) {
	network, err := atom.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	return NewServerWith(addr, cfg, network)
}

// NewServerWith hosts an existing network — the crash-restart path,
// where the deployment was rebuilt from a state directory
// (atom.RestoreNetwork) instead of a fresh key generation.
func NewServerWith(addr string, cfg atom.Config, network *atom.Network) (*Server, error) {
	node, err := transport.ListenTCP(addr, 1024)
	if err != nil {
		return nil, err
	}
	return &Server{
		node:    node,
		network: network,
		cfg:     cfg,
		done:    make(chan struct{}),
	}, nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.node.Addr() }

// Network exposes the hosted deployment (e.g. to install an Observer).
func (s *Server) Network() *atom.Network { return s.network }

// EnableService starts the continuous ingestion-and-mixing pipeline
// (atom.Network.Serve) that fast-path submissions feed and Await
// reads. The ctx is the pipeline's hard-stop switch; Close drains it
// gracefully.
func (s *Server) EnableService(ctx context.Context, opts atom.ServeOptions) error {
	svc, err := s.network.Serve(ctx, opts)
	if err != nil {
		return err
	}
	s.svc.Store(svc)
	return nil
}

// Service returns the continuous pipeline, nil before EnableService —
// e.g. for operators reading queue depths.
func (s *Server) Service() *atom.Service { return s.svc.Load() }

// Serve processes requests until Close. It is safe to run in a
// goroutine. Await requests run asynchronously so the daemon keeps
// answering other requests while a client waits for a round.
func (s *Server) Serve() {
	for msg := range s.node.Inbox() {
		body, async, err := s.handle(msg)
		if async == nil {
			s.reply(msg, body, err)
			continue
		}
		s.awaits.Add(1)
		go func() {
			defer s.awaits.Done()
			body, err := async()
			s.reply(msg, body, err)
		}()
	}
	s.awaits.Wait()
	close(s.done)
}

// reply answers req with a "-reply" of its type carrying its request
// id and a payload of the status (appendStatus), followed on success by
// the reply body.
func (s *Server) reply(req *transport.Message, body []byte, err error) {
	payload := appendStatus(nil, err)
	if err == nil {
		payload = append(payload, body...)
	}
	// A requester that hung up has nobody left to tell.
	_ = s.node.Send(req.From, &transport.Message{Type: req.Type + "-reply", Round: req.Round, Payload: payload})
}

// handle services one request, returning the reply body or error. A
// long request (await) instead returns async, which Serve runs off
// the inbox loop for the reply.
func (s *Server) handle(msg *transport.Message) (body []byte, async func() ([]byte, error), err error) {
	switch msg.Type {
	case msgInfo:
		info := &Info{
			Groups:      s.network.Groups(),
			MessageSize: s.cfg.MessageSize,
			Trap:        s.cfg.Variant == atom.Trap,
			SubmitAddr:  s.FastAddr(),
		}
		for gid := 0; gid < s.network.Groups(); gid++ {
			key, err := s.network.EntryKey(gid)
			if err != nil {
				return nil, nil, err
			}
			info.EntryKeys = append(info.EntryKeys, key)
		}
		return info.marshal(), nil, nil

	case msgAwait:
		svc := s.svc.Load()
		if svc == nil {
			return nil, nil, fmt.Errorf("daemon: not serving (no continuous service)")
		}
		r := wireReader{b: msg.Payload}
		rid := r.uvarint()
		if !r.done() {
			return nil, nil, fmt.Errorf("daemon: malformed await payload")
		}
		return nil, func() ([]byte, error) {
			// The park is bounded server-side: a bogus or long-gone
			// round id must not pin a goroutine until shutdown (the
			// client's own deadline is usually far shorter anyway).
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			out, err := svc.WaitRound(ctx, rid)
			switch {
			case err != nil:
				return nil, err
			case out.Err != nil:
				return nil, out.Err
			}
			return appendMessages(nil, out.Messages), nil
		}, nil

	default:
		return nil, nil, fmt.Errorf("daemon: unknown request %q", msg.Type)
	}
}

// Close shuts the daemon down: the fast path stops accepting (its
// queued submissions flush), the continuous service (if enabled) drains
// gracefully, then the endpoint closes and in-flight awaits finish.
func (s *Server) Close() error {
	if s.fast != nil {
		s.fast.close()
	}
	if svc := s.svc.Load(); svc != nil {
		_ = svc.Close()
	}
	err := s.node.Close()
	<-s.done
	return err
}

// Client talks to a daemon. Each client owns its own TCP endpoint (the
// reply channel) and demultiplexes replies by request sequence number,
// so its methods are safe for concurrent use — an Info can be answered
// while an Await is outstanding.
type Client struct {
	node   *transport.TCPNode
	server string
	// timeout bounds a request round trip when the context carries no
	// deadline of its own.
	timeout time.Duration

	seq atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan *transport.Message
	closed  bool
}

// Dial creates a client for the daemon at serverAddr.
func Dial(serverAddr string) (*Client, error) {
	node, err := transport.ListenTCP("127.0.0.1:0", 64)
	if err != nil {
		return nil, err
	}
	c := &Client{
		node:    node,
		server:  serverAddr,
		timeout: 30 * time.Second,
		waiters: make(map[uint64]chan *transport.Message),
	}
	go c.demux()
	return c, nil
}

// SetTimeout adjusts the default per-request bound applied when a
// context has no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Close releases the client's endpoint; outstanding requests fail.
func (c *Client) Close() error { return c.node.Close() }

// demux owns the inbox: it routes each reply to the waiter whose
// request sequence number it echoes. Stale replies (from requests whose
// context expired) are dropped.
func (c *Client) demux() {
	for msg := range c.node.Inbox() {
		c.mu.Lock()
		ch, ok := c.waiters[msg.Round]
		if ok {
			delete(c.waiters, msg.Round)
		}
		c.mu.Unlock()
		if ok {
			ch <- msg // buffered; never blocks
		}
	}
	// Endpoint closed: fail every outstanding waiter.
	c.mu.Lock()
	c.closed = true
	for seq, ch := range c.waiters {
		close(ch)
		delete(c.waiters, seq)
	}
	c.mu.Unlock()
}

// roundTrip sends req and waits for its reply, honoring the context's
// deadline (or the client's default timeout when the context has
// none) — a dead server fails the call instead of hanging it. It
// returns the reply body, or the server's typed error.
func (c *Client) roundTrip(ctx context.Context, req *transport.Message) ([]byte, error) {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	seq := c.seq.Add(1)
	ch := make(chan *transport.Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("daemon: client closed")
	}
	c.waiters[seq] = ch
	c.mu.Unlock()
	abandon := func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}

	req.Round = seq
	if err := c.node.Send(c.server, req); err != nil {
		abandon()
		return nil, err
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("daemon: client closed")
		}
		r := wireReader{b: msg.Payload}
		if err := r.status(); err != nil {
			return nil, err
		}
		if r.bad {
			return nil, fmt.Errorf("daemon: malformed %s reply", req.Type)
		}
		return r.b, nil
	case <-ctx.Done():
		abandon()
		return nil, fmt.Errorf("daemon: %s request: %w", req.Type, ctx.Err())
	}
}

// Info fetches the deployment description.
func (c *Client) Info(ctx context.Context) (*Info, error) {
	body, err := c.roundTrip(ctx, &transport.Message{Type: msgInfo})
	if err != nil {
		return nil, err
	}
	return unmarshalInfo(body)
}

// Await blocks until the continuous service publishes the given round,
// returning its anonymized messages (or its typed failure). The wait is
// bounded by ctx (or the client's default timeout).
func (c *Client) Await(ctx context.Context, round uint64) ([][]byte, error) {
	body, err := c.roundTrip(ctx, &transport.Message{Type: msgAwait, Payload: binary.AppendUvarint(nil, round)})
	if err != nil {
		return nil, err
	}
	return unmarshalMessages(body)
}
