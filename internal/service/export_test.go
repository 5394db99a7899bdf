package service

import (
	"context"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
)

// HoldMapping makes s's mapping runs wait until release closes (or
// their context ends); each run first announces itself on started when
// it has room. Tests outside the
// package use it to keep a leader job in flight.
func HoldMapping(s *Server, started chan<- struct{}, release <-chan struct{}) {
	inner := s.mapFn
	s.mapFn = func(ctx context.Context, circuit string, src *logic.Network, algo string, opt mapper.Options) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, circuit, src, algo, opt)
	}
}
