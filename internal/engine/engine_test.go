package engine

import (
	"context"
	"errors"
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
