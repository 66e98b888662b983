package sema

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireRelease(t *testing.T) {
	w := NewWeighted(10)
	ctx := context.Background()
	if err := w.Acquire(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if w.TryAcquire(4) {
		t.Fatal("over-capacity TryAcquire succeeded")
	}
	if !w.TryAcquire(3) {
		t.Fatal("in-capacity TryAcquire failed")
	}
	w.Release(3)
	w.Release(7)
	if !w.TryAcquire(10) {
		t.Fatal("full capacity unavailable after release")
	}
}

func TestAcquireOverCapacityErrors(t *testing.T) {
	w := NewWeighted(5)
	if err := w.Acquire(context.Background(), 6); err == nil {
		t.Fatal("acquiring beyond capacity should error, not deadlock")
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	w := NewWeighted(4)
	ctx := context.Background()
	if err := w.Acquire(ctx, 4); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- w.Acquire(ctx, 2) }()
	select {
	case <-got:
		t.Fatal("acquire proceeded while semaphore was full")
	case <-time.After(20 * time.Millisecond):
	}
	w.Release(4)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	w := NewWeighted(1)
	if err := w.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- w.Acquire(ctx, 1) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-got; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The canceled waiter must not leak capacity.
	w.Release(1)
	if !w.TryAcquire(1) {
		t.Fatal("capacity lost after canceled waiter")
	}
}

func TestFIFONoStarvation(t *testing.T) {
	// A big waiter queued first is granted before a small one queued after,
	// even though the small one would fit immediately.
	w := NewWeighted(10)
	ctx := context.Background()
	if err := w.Acquire(ctx, 8); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Acquire(ctx, 9) // needs almost everything
		mu.Lock()
		order = append(order, 9)
		mu.Unlock()
		w.Release(9)
	}()
	time.Sleep(10 * time.Millisecond) // ensure the big request queues first
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Acquire(ctx, 2) // would fit right now, but must wait its turn
		mu.Lock()
		order = append(order, 2)
		mu.Unlock()
		w.Release(2)
	}()
	time.Sleep(10 * time.Millisecond)
	w.Release(8)
	wg.Wait()
	if len(order) != 2 || order[0] != 9 {
		t.Fatalf("grant order = %v, want big waiter first", order)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	const cap = 100
	w := NewWeighted(cap)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := w.Acquire(context.Background(), n); err != nil {
					t.Error(err)
					return
				}
				cur := inFlight.Add(n)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inFlight.Add(-n)
				w.Release(n)
			}
		}(int64(1 + i%7))
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("in-flight weight peaked at %d, capacity %d", p, cap)
	}
}

// TryAcquire takes weight n without blocking, reporting whether it
// succeeded. It respects FIFO order: it fails while waiters are queued.
func (w *Weighted) TryAcquire(n int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur+n <= w.size && w.waiters.Len() == 0 {
		w.cur += n
		return true
	}
	return false
}
