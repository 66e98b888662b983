package blobstore

import (
	"context"

	"repro/internal/digest"
)

// Flights coalesces concurrent work on one digest: the first caller to
// Claim it does the work and Lands the outcome, the others Wait for it. It
// has no lock of its own: the owner calls Claim and Land under the mutex
// that guards its "already done" state, so the check and the claim are one
// decision. A failed Land frees the digest for the next Claim.
type Flights map[digest.Digest]*Flight

// Flight is one claimed digest's work in progress.
type Flight struct {
	done chan struct{}
	err  error
}

// Claim returns d's flight, and won when the caller created it and must
// Land it. Call under the owner's mutex.
func (fs Flights) Claim(d digest.Digest) (f *Flight, won bool) {
	if f, ok := fs[d]; ok {
		return f, false
	}
	f = &Flight{done: make(chan struct{})}
	fs[d] = f
	return f, true
}

// Land ends the winner's flight with err and wakes its waiters. Call under
// the owner's mutex, once the result is where later callers look for it.
func (fs Flights) Land(d digest.Digest, f *Flight, err error) {
	delete(fs, d)
	f.err = err
	close(f.done)
}

// Wait returns the winner's error once f lands, or ctx's error if ctx ends
// first; the flight carries on for the others.
func (f *Flight) Wait(ctx context.Context) error {
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}
