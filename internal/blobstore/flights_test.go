package blobstore

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/digest"
)

// TestFlights drives the claim primitive the way its owners do: Claim and
// Land under the owner's mutex, Wait outside it.
func TestFlights(t *testing.T) {
	d := digest.FromBytes([]byte("flight"))
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, mu *sync.Mutex, fs Flights)
	}{
		{"waiter sees the winner's success", func(t *testing.T, mu *sync.Mutex, fs Flights) {
			f, won := fs.Claim(d)
			if !won {
				t.Fatal("first claim lost")
			}
			w, won := fs.Claim(d)
			if won || w != f {
				t.Fatal("second claim won, or got another flight")
			}
			got := make(chan error)
			go func() { got <- w.Wait(context.Background()) }()
			mu.Lock()
			fs.Land(d, f, nil)
			mu.Unlock()
			if err := <-got; err != nil {
				t.Fatalf("waiter got %v, want the winner's success", err)
			}
		}},
		{"one of N waiters re-wins after a failed land", func(t *testing.T, mu *sync.Mutex, fs Flights) {
			const n = 8
			f, _ := fs.Claim(d)
			var (
				done    bool // the owner's "already done" state
				waiting int
				rewins  int
				wg      sync.WaitGroup
			)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						if done {
							mu.Unlock()
							return
						}
						g, won := fs.Claim(d)
						if !won {
							waiting++
						}
						mu.Unlock()
						if won {
							mu.Lock()
							rewins++
							done = true
							fs.Land(d, g, nil)
							mu.Unlock()
							return
						}
						if g.Wait(context.Background()) == nil {
							return
						}
					}
				}()
			}
			for {
				mu.Lock()
				ready := waiting >= n
				mu.Unlock()
				if ready {
					break
				}
				runtime.Gosched()
			}
			mu.Lock()
			fs.Land(d, f, errBoom)
			mu.Unlock()
			wg.Wait()
			if rewins != 1 {
				t.Fatalf("%d waiters re-won the failed flight, want exactly 1", rewins)
			}
		}},
		{"a waiter whose ctx ends leaves the flight to the others", func(t *testing.T, mu *sync.Mutex, fs Flights) {
			f, _ := fs.Claim(d)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
			}
			mu.Lock()
			g, won := fs.Claim(d)
			mu.Unlock()
			if won || g != f {
				t.Fatal("the cancelled waiter took the flight down with it")
			}
			got := make(chan error)
			go func() { got <- g.Wait(context.Background()) }()
			mu.Lock()
			fs.Land(d, f, errBoom)
			mu.Unlock()
			if err := <-got; err != errBoom {
				t.Fatalf("remaining waiter got %v, want the winner's error", err)
			}
		}},
		{"a landed digest can be claimed again", func(t *testing.T, mu *sync.Mutex, fs Flights) {
			f, _ := fs.Claim(d)
			fs.Land(d, f, nil)
			if len(fs) != 0 {
				t.Fatalf("%d flights after landing, want 0", len(fs))
			}
			g, won := fs.Claim(d)
			if !won || g == f {
				t.Fatal("a landed digest was not claimable afresh")
			}
			if err := f.Wait(context.Background()); err != nil {
				t.Fatalf("the landed flight now reports %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, new(sync.Mutex), make(Flights))
		})
	}
}
