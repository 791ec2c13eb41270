package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPNode is a TCP-backed Endpoint for real multi-process deployments
// (cmd/atomd). Each Message travels as one binary envelope in the
// daemon fast path's layout (see encodeFrame): type, sender, round and
// payload; the receiver fills in To with its own address. Peers are
// addressed by "host:port"; connections are dialed lazily and kept
// open. A production deployment would wrap the dialed connections in
// crypto/tls with pinned server certificates to realize the
// authenticated channels of §2.1 — the framing below is agnostic to the
// underlying net.Conn.
type TCPNode struct {
	addr     string
	listener net.Listener
	inbox    chan *Message
	maxFrame int64
	// done closes with the node, releasing readers blocked on a full
	// inbox so Close can wait for them.
	done chan struct{}

	mu      sync.Mutex
	conns   map[string]*tcpConn // outbound, keyed by peer address
	inbound map[net.Conn]bool   // accepted connections, for Close
	closed  bool
	wg      sync.WaitGroup
}

// tcpConn pairs an outbound connection with a write mutex: concurrent
// Sends to one peer (the daemon's async mix replies, the client's
// concurrency-safe methods) must not interleave their length-prefixed
// frames on the shared connection. dlmu/seq/writing guard the
// cancellation watcher: a late-firing watcher may only expire the
// write deadline while its own send is still the one in flight.
type tcpConn struct {
	conn net.Conn
	wmu  sync.Mutex

	dlmu    sync.Mutex
	seq     uint64
	writing bool
}

// DefaultMaxFrame bounds a frame to 64 MiB unless TCPOptions overrides
// it, stopping a malformed (or hostile) length prefix from allocating
// unbounded memory — a 4-byte prefix can claim up to 4 GiB.
const DefaultMaxFrame = 64 << 20

// TCPOptions tunes a TCP endpoint.
type TCPOptions struct {
	// Buffer is the inbox capacity (default 1024).
	Buffer int
	// MaxFrame is the largest frame accepted on read or produced on
	// write, in bytes (default DefaultMaxFrame). Oversized frames fail
	// with ErrFrameTooLarge; on read the connection is dropped before
	// the claimed length is allocated.
	MaxFrame int64
}

// ListenTCP starts a TCP endpoint on addr ("host:port", ":0" for an
// ephemeral port) with default options.
func ListenTCP(addr string, buffer int) (*TCPNode, error) {
	return ListenTCPOpts(addr, TCPOptions{Buffer: buffer})
}

// ListenTCPOpts starts a TCP endpoint with explicit options.
func ListenTCPOpts(addr string, opts TCPOptions) (*TCPNode, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		addr:     l.Addr().String(),
		listener: l,
		inbox:    make(chan *Message, opts.Buffer),
		maxFrame: opts.MaxFrame,
		done:     make(chan struct{}),
		conns:    make(map[string]*tcpConn),
		inbound:  make(map[net.Conn]bool),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr implements Endpoint. It returns the bound listen address.
func (n *TCPNode) Addr() string { return n.addr }

// Inbox implements Endpoint.
func (n *TCPNode) Inbox() <-chan *Message { return n.inbox }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.mu.Lock()
				delete(n.inbound, conn)
				n.mu.Unlock()
			}()
			n.readLoop(conn)
		}()
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	for {
		msg, err := readFrame(conn, n.maxFrame)
		if err != nil {
			return
		}
		msg.To = n.addr
		// A full inbox blocks the reader (backpressure onto the peer's
		// socket) until space frees or the node closes.
		select {
		case n.inbox <- msg:
		case <-n.done:
			return
		}
	}
}

// Send implements Endpoint: it dials (or reuses) a connection to the
// peer address and writes one frame. Safe for concurrent use: frames
// to the same peer are serialized on the connection's write mutex.
func (n *TCPNode) Send(to string, msg *Message) error {
	return n.SendCtx(context.Background(), to, msg)
}

// SendCtx implements Endpoint: Send with the dial and the frame write
// bounded by the context's deadline.
func (n *TCPNode) SendCtx(ctx context.Context, to string, msg *Message) error {
	cp := *msg
	cp.From = n.addr
	// An oversized frame fails before any dial or write, so it never
	// costs the peer connection.
	frame, err := encodeFrame(&cp, n.maxFrame)
	if err != nil {
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	tc, ok := n.conns[to]
	n.mu.Unlock()
	if !ok {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", to)
		if err != nil {
			return fmt.Errorf("transport: dial %s: %w", to, err)
		}
		tc = &tcpConn{conn: conn}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		if existing, race := n.conns[to]; race {
			conn.Close()
			tc = existing
		} else {
			n.conns[to] = tc
			n.wg.Add(1)
			go n.watchStale(to, tc)
		}
		n.mu.Unlock()
	}
	tc.wmu.Lock()
	if deadline, ok := ctx.Deadline(); ok {
		_ = tc.conn.SetWriteDeadline(deadline)
	} else {
		_ = tc.conn.SetWriteDeadline(time.Time{})
	}
	// A deadline-less context can still be canceled mid-write (a full
	// peer receive buffer blocks Write indefinitely): a watcher forces
	// the blocked write to fail by expiring the write deadline. The
	// per-send deadline reset above clears it for the next frame, and
	// the seq/writing guard keeps a late-firing watcher from expiring
	// a LATER send's deadline on the shared connection.
	var watchStop chan struct{}
	if ctx.Done() != nil {
		watchStop = make(chan struct{})
		tc.dlmu.Lock()
		tc.seq++
		mySeq := tc.seq
		tc.writing = true
		tc.dlmu.Unlock()
		go func() {
			select {
			case <-ctx.Done():
				tc.dlmu.Lock()
				if tc.writing && tc.seq == mySeq {
					_ = tc.conn.SetWriteDeadline(time.Unix(1, 0))
				}
				tc.dlmu.Unlock()
			case <-watchStop:
			}
		}()
	}
	// One Write per frame: prefix, header and payload go out together.
	_, err = tc.conn.Write(frame)
	if watchStop != nil {
		tc.dlmu.Lock()
		tc.writing = false
		tc.dlmu.Unlock()
		close(watchStop)
	}
	tc.wmu.Unlock()
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		// Connection went stale; drop it so the next send redials.
		n.mu.Lock()
		if n.conns[to] == tc {
			delete(n.conns, to)
		}
		n.mu.Unlock()
		tc.conn.Close()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// watchStale evicts an outbound connection the moment its peer hangs
// up. The framing protocol never delivers data on outbound connections
// (peers reply by dialing the sender's listen address), so the only
// thing a blocking read can ever return is the peer's FIN or RST — or
// garbage, equally disqualifying. Without this, a crashed peer leaves a
// half-closed connection in the cache and the FIRST frame written to it
// disappears into the kernel buffer without an error: the write
// "succeeds", the peer is gone, and a peer restarted at the same
// address never sees the message. The prompt eviction makes the next
// send redial — and reach the restarted process.
func (n *TCPNode) watchStale(to string, tc *tcpConn) {
	defer n.wg.Done()
	var buf [1]byte
	_, _ = tc.conn.Read(buf[:]) // blocks until the peer closes (or misbehaves)
	n.mu.Lock()
	if n.conns[to] == tc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	tc.conn.Close()
}

// Close implements Endpoint.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	for _, c := range n.conns {
		c.conn.Close()
	}
	n.conns = map[string]*tcpConn{}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()

	n.listener.Close()
	n.wg.Wait()
	close(n.inbox)
	return nil
}

// encodeFrame renders msg as one envelope — u32_be length ‖
// uvarint-len type ‖ uvarint-len from ‖ uvarint round ‖ payload, the
// daemon fast path's frame layout. To is left off: the receiver is the
// destination. Oversized frames fail before anything is allocated.
func encodeFrame(msg *Message, maxFrame int64) ([]byte, error) {
	size := uvarintLen(uint64(len(msg.Type))) + len(msg.Type) +
		uvarintLen(uint64(len(msg.From))) + len(msg.From) +
		uvarintLen(msg.Round) + len(msg.Payload)
	if int64(size) > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrFrameTooLarge, size, maxFrame)
	}
	frame := make([]byte, 4, 4+size)
	binary.BigEndian.PutUint32(frame, uint32(size))
	frame = binary.AppendUvarint(frame, uint64(len(msg.Type)))
	frame = append(frame, msg.Type...)
	frame = binary.AppendUvarint(frame, uint64(len(msg.From)))
	frame = append(frame, msg.From...)
	frame = binary.AppendUvarint(frame, msg.Round)
	return append(frame, msg.Payload...), nil
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// readFrame reads one envelope. The length prefix is checked against
// maxFrame before the body is allocated: the prefix alone can claim
// 4 GiB.
func readFrame(r io.Reader, maxFrame int64) (*Message, error) {
	var ln [4]byte
	if _, err := io.ReadFull(r, ln[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(ln[:])
	if int64(size) > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrFrameTooLarge, size, maxFrame)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeFrame(body)
}

// decodeFrame parses an envelope body (everything after the length
// prefix). The payload aliases body.
func decodeFrame(body []byte) (*Message, error) {
	var head [2]string // type, from
	for i := range head {
		n, k := binary.Uvarint(body)
		if k <= 0 || n > uint64(len(body)-k) {
			return nil, errBadFrame
		}
		head[i], body = string(body[k:k+int(n)]), body[k+int(n):]
	}
	round, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, errBadFrame
	}
	msg := &Message{Type: head[0], From: head[1], Round: round}
	if body = body[k:]; len(body) > 0 {
		msg.Payload = body
	}
	return msg, nil
}

var errBadFrame = errors.New("transport: malformed frame")
