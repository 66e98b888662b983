package engine

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultWorkers}, {-3, DefaultWorkers}, {1, 1}, {17, 17},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestForEach(t *testing.T) {
	e0, e1, e2 := errors.New("index 0"), errors.New("index 1"), errors.New("index 2")
	for _, tc := range []struct {
		name       string
		workers, n int
		cancelled  bool // ctx is done before ForEach is called
		fn         func(ctx context.Context, i int) error
		wantErr    error
		wantCalls  []int32 // per index; nil skips the check
	}{
		{
			name: "no indices", workers: 4, n: 0,
			fn:        func(context.Context, int) error { return e0 },
			wantCalls: []int32{},
		},
		{
			name: "more workers than indices", workers: 8, n: 5,
			fn:        func(context.Context, int) error { return nil },
			wantCalls: []int32{1, 1, 1, 1, 1},
		},
		{
			name: "one worker stops at the failed index", workers: 1, n: 6,
			fn: func(_ context.Context, i int) error {
				if i == 2 {
					return e2
				}
				return nil
			},
			wantErr:   e2,
			wantCalls: []int32{1, 1, 1, 0, 0, 0},
		},
		{
			// Index 0 fails last, after index 1's failure cancelled it.
			name: "lowest failed index wins", workers: 3, n: 3,
			fn: func(ctx context.Context, i int) error {
				switch i {
				case 0:
					<-ctx.Done()
					return e0
				case 1:
					return e1
				}
				return e2
			},
			wantErr: e0,
		},
		{
			name: "cancelled up front", workers: 2, n: 4, cancelled: true,
			fn:        func(context.Context, int) error { return nil },
			wantErr:   context.Canceled,
			wantCalls: []int32{0, 0, 0, 0},
		},
		{
			name: "failure releases a blocked call", workers: 2, n: 2,
			fn: func(ctx context.Context, i int) error {
				if i == 1 {
					return e1
				}
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(10 * time.Second):
					return errors.New("blocked call never released")
				}
			},
			wantErr:   e1,
			wantCalls: []int32{1, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			calls := make([]atomic.Int32, tc.n)
			var inFlight, peak atomic.Int32
			err := ForEach(ctx, tc.workers, tc.n, func(ctx context.Context, i int) error {
				if i < 0 || i >= tc.n {
					t.Errorf("fn called with index %d outside [0, %d)", i, tc.n)
					return nil
				}
				calls[i].Add(1)
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				return tc.fn(ctx, i)
			})
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if p, limit := peak.Load(), int32(min(Workers(tc.workers), tc.n)); p > limit {
				t.Errorf("%d calls in flight at once, want ≤ %d", p, limit)
			}
			if tc.wantCalls == nil {
				return
			}
			for i := range calls {
				if got := calls[i].Load(); got != tc.wantCalls[i] {
					t.Errorf("index %d called %d times, want %d", i, got, tc.wantCalls[i])
				}
			}
		})
	}
}

// TestSleepContextCancel: the real sleep aborts promptly when the context
// is cancelled mid-delay.
func TestSleepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- SleepContext(ctx, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("sleep did not abort on cancellation")
	}
}

// TestFreeList: the list keeps GOMAXPROCS values across garbage
// collections; a value put past that spills to a sync.Pool, which Get
// draws from before it makes a new value and which collections empty.
func TestFreeList(t *testing.T) {
	l := NewFreeList[[64]byte]()
	n := runtime.GOMAXPROCS(0)
	held := make([]*[64]byte, n+3)
	for i := range held {
		held[i] = l.Get()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, x := range held {
		l.Put(x)
	}
	if len(l.free) != n {
		t.Fatalf("list keeps %d values after %d puts, want GOMAXPROCS = %d", len(l.free), len(held), n)
	}
	kept, spilled := make(map[*[64]byte]bool), make(map[*[64]byte]bool)
	for i, x := range held {
		if i < n {
			kept[x] = true
		} else {
			spilled[x] = true
		}
	}
	var back []*[64]byte
	for range n {
		if x := l.Get(); kept[x] {
			back = append(back, x)
		} else {
			t.Fatal("Get returned a value the list was not keeping while it kept some")
		}
	}
	// The race detector's sync.Pool drops puts at random.
	if x := l.Get(); !raceEnabled && !spilled[x] {
		t.Fatal("Get on an empty list made a new value while the spill held three")
	}
	for _, x := range back {
		l.Put(x)
	}
	runtime.GC()
	runtime.GC()
	for range n {
		if x := l.Get(); !kept[x] {
			t.Fatal("Get after two collections returned a value the list was not keeping")
		}
	}
	if x := l.Get(); kept[x] || spilled[x] {
		t.Fatal("the spill kept a value across two collections")
	}
}

// TestFreeListConcurrent: concurrent users never share a value, and once
// they are done the list keeps as many as it can before spilling any.
// Under the race detector a value handed to two users at once is a
// reported race.
func TestFreeListConcurrent(t *testing.T) {
	l := NewFreeList[int]()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				x := l.Get()
				*x = g
				runtime.Gosched()
				if *x != g {
					t.Error("a value was handed to two users at once")
				}
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := len(l.free); n != min(8, cap(l.free)) {
		t.Fatalf("list keeps %d values after 8 users put theirs back, capacity %d", n, cap(l.free))
	}
}
