// Package transport carries Atom's inter-node messages. It provides two
// interchangeable implementations of the same small interface:
//
//   - an in-memory network with an optional pairwise latency model
//     (emulating the paper's tc-injected 40–160 ms RTTs, §6) and
//     per-node traffic accounting used for the bandwidth estimates of
//     §7;
//   - a TCP transport (length-prefixed binary envelopes) for the atomd
//     daemon and the distributed round engine.
//
// Endpoints are liveness-aware in the sense the distributed engine
// needs: a delivery to a dead or departed node fails promptly with an
// error Unreachable classifies as a peer failure (ErrClosed,
// ErrUnknownNode, or a network-level dial/write error), distinct from
// the caller's context expiring or the message itself being oversized
// (ErrFrameTooLarge). That classification is what turns a crashed
// member into a typed member-lost report instead of a silent stall.
//
// The paper assumes "encrypted, authenticated, and replay-protected
// channels (e.g., TLS)" between all parties (§2.1); the in-memory
// network models such channels as reliable ordered links, and the TCP
// transport is the hook where a deployment would layer crypto/tls.
package transport
