// Package engine holds what the study's packages share instead of
// re-defining it: the worker-count default; the one bounded fan-out,
// ForEach, that the crawl, the live push, the layer walks and the
// closed-loop load generator run on; the free list that keeps codec state
// across garbage collections; and the one sanctioned wall clock and sleep
// for the deterministic packages (the noadhocclock lint rule forbids bare
// time.Now and timers there).
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the run-wide parallelism default. Every component that
// accepts a worker count (study orchestration, crawls, image downloads,
// fused assembly walks) resolves 0 to this value through Workers, so the
// default lives in exactly one place.
const DefaultWorkers = 8

// Workers resolves a configured worker count: non-positive means
// DefaultWorkers.
func Workers(n int) int {
	if n <= 0 {
		return DefaultWorkers
	}
	return n
}

// ForEach calls fn once for each index in [0, n) on at most
// min(Workers(workers), n) goroutines. Indices are handed out in
// increasing order. The first error cancels the context every call
// receives and stops the hand-out; a done ctx stops it too. ForEach
// returns the error of the lowest index that failed, or, when none did,
// ctx's error.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	for range min(Workers(workers), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// FreeList is a bounded stock of reusable values, safe for concurrent use.
// Unlike a sync.Pool it keeps up to GOMAXPROCS values across garbage
// collections, so costly state (a deflater is ≈1 MB) is not rebuilt after
// every GC. Values put past that go to a sync.Pool: a burst of more users
// is served as a sync.Pool would serve it, and leaves nothing behind.
type FreeList[T any] struct {
	free  chan *T
	spill sync.Pool
}

// NewFreeList returns an empty FreeList.
func NewFreeList[T any]() *FreeList[T] {
	return &FreeList[T]{free: make(chan *T, runtime.GOMAXPROCS(0))}
}

// Get takes a kept value, or a spilled one, or returns new(T).
func (l *FreeList[T]) Get() *T {
	select {
	case x := <-l.free:
		return x
	default:
	}
	if x, ok := l.spill.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put keeps x for a later Get, or spills it when the list is full; the
// caller must not use x afterwards.
func (l *FreeList[T]) Put(x *T) {
	select {
	case l.free <- x:
	default:
		l.spill.Put(x)
	}
}

// SystemNow is the one sanctioned wall-clock read in the deterministic
// packages (the noadhocclock lint rule forbids bare time.Now there).
func SystemNow() time.Time {
	return time.Now() //lint:allow noadhocclock the clock seam's single real implementation
}

// SleepContext pauses for d or until ctx is done, whichever comes first
// — the sanctioned sleep primitive for deterministic packages (retry
// backoff). It returns ctx's error when the wait was cut short.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d) //lint:allow noadhocclock the sleep seam's single real implementation
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
