package atom

import (
	"context"
	"sync"

	"atom/internal/bulletin"
	"atom/internal/microblog"
)

// MicroblogMessageSize is the paper's microblogging message size
// (160 bytes, roughly a Tweet; §5). A Config used with NewMicroblog
// must set MessageSize to this value.
const MicroblogMessageSize = microblog.MessageSize

// Post is one published microblog message.
type Post struct {
	Round   uint64
	Seq     int
	Message string
}

// Microblog is the anonymous microblogging application (§5): posts are
// padded, onion-encrypted, mixed through the network, and the
// anonymized batch is published to a bulletin board. Post collects
// posts in an explicit Round, opened by the first Post after a Publish;
// Publish mixes and publishes that round, and the next Post opens its
// replacement.
type Microblog struct {
	n   *Network
	svc *microblog.Service

	mu    sync.Mutex
	round *Round // nil until the first Post after a Publish
}

// NewMicroblog attaches the microblogging application to a network
// whose MessageSize is MicroblogMessageSize.
func NewMicroblog(n *Network) (*Microblog, error) {
	svc, err := microblog.NewService(n.d, bulletin.NewBoard())
	if err != nil {
		return nil, err
	}
	return &Microblog{n: n, svc: svc}, nil
}

// Post submits one message for the given user into the round the next
// Publish mixes. A Post that races a Publish either lands in the
// published round or fails with ErrRoundClosed.
func (m *Microblog) Post(user int, text string) error {
	if err := microblog.ValidatePost(text); err != nil {
		return wrapErr(err)
	}
	m.mu.Lock()
	if m.round == nil {
		round, err := m.n.OpenRound(context.Background())
		if err != nil {
			m.mu.Unlock()
			return err
		}
		m.round = round
	}
	round := m.round
	m.mu.Unlock()
	return round.Submit(user, []byte(text))
}

// PostOpen submits one message through a continuous Service, into
// whichever round is currently open, returning that round's id — the
// application's continuous mode: posters never wait for an explicit
// Publish, the service's round scheduler seals and mixes on its own
// cadence and PublishOutcome lands each batch on the board.
func (m *Microblog) PostOpen(svc *Service, user int, text string) error {
	if err := microblog.ValidatePost(text); err != nil {
		return wrapErr(err)
	}
	_, err := svc.Submit(user, []byte(text))
	return err
}

// PublishOutcome records a continuous round's outcome on the bulletin
// board and returns the published posts. Failed rounds (outcome.Err set)
// publish nothing and return the round's error.
func (m *Microblog) PublishOutcome(out *RoundOutcome) ([]Post, error) {
	if out.Err != nil {
		return nil, out.Err
	}
	posts, err := m.svc.PublishResult(out.Round, out.Messages)
	if err != nil {
		return nil, wrapErr(err)
	}
	pub := make([]Post, len(posts))
	for i, p := range posts {
		pub[i] = Post{Round: p.Round, Seq: p.Seq, Message: string(p.Message)}
	}
	return pub, nil
}

// Publish mixes the round and publishes the anonymized posts, returning
// them in board order.
func (m *Microblog) Publish() ([]Post, error) {
	return m.PublishCtx(context.Background())
}

// PublishCtx is Publish with cancellation/deadline propagation into the
// mixing iterations; errors classify under the package taxonomy. Later
// posts go into a fresh round whether or not the mix succeeded; a
// context that was already dead leaves the round and its posts in place
// for a retry. With nothing posted it publishes nothing.
func (m *Microblog) PublishCtx(ctx context.Context) ([]Post, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(err)
	}
	m.mu.Lock()
	round := m.round
	m.round = nil
	m.mu.Unlock()
	if round == nil {
		return nil, nil
	}
	res, err := round.Mix(ctx)
	if err != nil {
		return nil, err
	}
	return m.PublishOutcome(&RoundOutcome{Round: round.ID(), Messages: res.Messages})
}

// Board returns every post published so far, across rounds.
func (m *Microblog) Board() []Post {
	all := m.svc.Board().All()
	out := make([]Post, len(all))
	for i, p := range all {
		out[i] = Post{Round: p.Round, Seq: p.Seq, Message: string(p.Message)}
	}
	return out
}
