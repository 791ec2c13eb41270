// Package microblog is Atom's anonymous microblogging application
// (paper §5): users broadcast short fixed-size messages (the evaluation
// uses 160 bytes — roughly a Tweet) through the mix-net, and the exit
// servers publish the anonymized batch to a public bulletin board.
package microblog

import (
	"fmt"
	"unicode/utf8"

	"atom/internal/bulletin"
	"atom/internal/protocol"
)

// MessageSize is the paper's microblog message size: "We use 160 byte
// messages in our evaluation" (§5).
const MessageSize = 160

// Service glues a protocol deployment's published rounds to a bulletin
// board. Posts enter the mix-net like any other message (atom.Microblog
// submits them into explicit rounds); the service validates them and
// publishes each mixed round's batch.
type Service struct {
	board *bulletin.Board
}

// NewService creates a microblogging service over an existing
// deployment. The deployment's MessageSize must be MessageSize.
func NewService(d *protocol.Deployment, board *bulletin.Board) (*Service, error) {
	if size := d.Config().MessageSize; size != MessageSize {
		return nil, fmt.Errorf("microblog: deployment message size %d, want %d", size, MessageSize)
	}
	return &Service{board: board}, nil
}

// ValidatePost checks a post against the application's message rules:
// valid UTF-8, at most MessageSize−2 bytes (2 bytes of length framing).
func ValidatePost(text string) error {
	if !utf8.ValidString(text) {
		return fmt.Errorf("microblog: post is not valid UTF-8")
	}
	if len(text) > MessageSize-2 {
		return fmt.Errorf("microblog: post of %d bytes exceeds %d", len(text), MessageSize-2)
	}
	return nil
}

// PublishResult records a mixed round's anonymized batch on the board.
// round is the mix-net's round id; the board keys posts by it.
func (s *Service) PublishResult(round uint64, msgs [][]byte) ([]bulletin.Post, error) {
	if err := s.board.Publish(round, msgs); err != nil {
		return nil, err
	}
	return s.board.Round(round), nil
}

// Board exposes the bulletin board for readers.
func (s *Service) Board() *bulletin.Board { return s.board }
