// Package sema provides a context-aware weighted semaphore used to bound
// the bytes in flight across concurrent layer downloads. Unlike a plain
// buffered channel the weight of each acquisition varies (layers range
// from kilobytes to gigabytes), and waiters are served strictly FIFO so a
// stream of small layers cannot starve a large one indefinitely.
package sema

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Weighted is a semaphore with a fixed capacity from which callers acquire
// variable weights. The zero value is unusable; use NewWeighted.
type Weighted struct {
	size int64
	mu   sync.Mutex
	cur  int64
	// waiters holds *waiter in arrival order. Grants are strictly FIFO:
	// notify stops at the first waiter that does not fit, so big requests
	// are never starved by a stream of small ones.
	waiters list.List
}

type waiter struct {
	n     int64
	ready chan struct{} // closed when the weight has been granted
}

// NewWeighted builds a semaphore with the given capacity.
func NewWeighted(size int64) *Weighted {
	return &Weighted{size: size}
}

// Acquire blocks until weight n can be taken from the semaphore or ctx is
// done. Acquiring more than the total capacity fails immediately rather
// than deadlocking — callers clamp oversized requests to the capacity.
func (w *Weighted) Acquire(ctx context.Context, n int64) error {
	if n > w.size {
		return fmt.Errorf("sema: acquire %d exceeds capacity %d", n, w.size)
	}
	w.mu.Lock()
	// Fast path: fits and nobody is queued ahead of us.
	if w.cur+n <= w.size && w.waiters.Len() == 0 {
		w.cur += n
		w.mu.Unlock()
		return nil
	}
	wt := &waiter{n: n, ready: make(chan struct{})}
	elem := w.waiters.PushBack(wt)
	w.mu.Unlock()

	select {
	case <-wt.ready:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		select {
		case <-wt.ready:
			// Granted in the race with cancellation: give it back so the
			// accounting stays balanced.
			w.mu.Unlock()
			w.Release(n)
		default:
			w.waiters.Remove(elem)
			// Removing a waiter can unblock the ones behind it.
			w.notifyLocked()
			w.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Release returns weight n to the semaphore, waking queued waiters in
// FIFO order.
func (w *Weighted) Release(n int64) {
	w.mu.Lock()
	w.cur -= n
	if w.cur < 0 {
		w.mu.Unlock()
		panic("sema: released more than held")
	}
	w.notifyLocked()
	w.mu.Unlock()
}

// notifyLocked grants the longest FIFO prefix of waiters that fits.
func (w *Weighted) notifyLocked() {
	for {
		front := w.waiters.Front()
		if front == nil {
			return
		}
		wt := front.Value.(*waiter)
		if w.cur+wt.n > w.size {
			return
		}
		w.cur += wt.n
		w.waiters.Remove(front)
		close(wt.ready)
	}
}
