package cache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// BenchmarkCacheHitServe measures the hot path the mirror lives on: a
// GetOrFill hit streamed to a client (io.Discard stands in for the
// response writer).
func BenchmarkCacheHitServe(b *testing.B) {
	c := New(blobstore.NewMemory(), 64<<20)
	content, d := blobOfSize(1, 1<<20)
	if err := c.Admit(d, content); err != nil {
		b.Fatal(err)
	}
	fill := bytesFill(content, nil)
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _, out, err := c.GetOrFill(context.Background(), d, fill)
		if err != nil {
			b.Fatal(err)
		}
		if out != Hit {
			b.Fatalf("outcome = %v, want Hit", out)
		}
		if _, err := io.Copy(io.Discard, rc); err != nil {
			b.Fatal(err)
		}
		rc.Close()
	}
}

// BenchmarkCacheHitParallel measures hits from every P at once: each
// goroutine cycles over 64 resident 4 KiB blobs, so run at -cpu 1,2,8 it
// shows what the cache's one lock costs under contention. The budget is
// four times the blobs' bytes, so none is ever evicted.
func BenchmarkCacheHitParallel(b *testing.B) {
	const blobs = 64
	c := New(blobstore.NewMemory(), 4*blobs*4<<10)
	ds := make([]digest.Digest, blobs)
	fills := make([]FillFunc, blobs)
	for i := range ds {
		var content []byte
		content, ds[i] = blobOfSize(200+i, 4<<10)
		if err := c.Admit(ds[i], content); err != nil {
			b.Fatal(err)
		}
		fills[i] = bytesFill(content, nil)
	}
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			k := i % blobs
			rc, _, out, err := c.GetOrFill(context.Background(), ds[k], fills[k])
			if err != nil || out != Hit {
				b.Errorf("%s: outcome %v, %v; want a hit", ds[k].Short(), out, err)
				return
			}
			io.Copy(io.Discard, rc)
			rc.Close()
		}
	})
}

// BenchmarkCacheMissFill measures the cold path: fetch-tee-verify-admit of
// a fresh 1MiB blob per iteration (the budget is large enough that no
// iteration evicts).
func BenchmarkCacheMissFill(b *testing.B) { benchMissFill(b, io.Discard) }

// BenchmarkCacheMissFillSink is CacheMissFill drained the way a response
// is: into a writer that is nothing but a Writer, where io.Discard's own
// pooled ReadFrom cannot stand in for a copy buffer.
func BenchmarkCacheMissFillSink(b *testing.B) { benchMissFill(b, plainSink{}) }

// plainSink is an io.Writer and nothing else.
type plainSink struct{}

func (plainSink) Write(p []byte) (int, error) { return len(p), nil }

func benchMissFill(b *testing.B, sink io.Writer) {
	content, _ := blobOfSize(2, 1<<20)
	// Give every iteration distinct content so each fill is a genuine miss.
	bodies := make([][]byte, b.N)
	ds := make([]digest.Digest, b.N)
	for i := range bodies {
		bodies[i] = append([]byte(nil), content...)
		copy(bodies[i], []byte(fmt.Sprintf("iteration %d", i)))
		ds[i] = digest.FromBytes(bodies[i])
	}
	// The budget holds every body, so nothing is evicted.
	c := New(blobstore.NewMemory(), int64(b.N+1)<<20)
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
			return io.NopCloser(bytes.NewReader(bodies[i])), int64(len(bodies[i])), nil
		}
		rc, _, out, err := c.GetOrFill(context.Background(), ds[i], fill)
		if err != nil {
			b.Fatal(err)
		}
		if out != Miss {
			b.Fatalf("outcome = %v, want Miss", out)
		}
		if _, err := io.Copy(sink, rc); err != nil {
			b.Fatal(err)
		}
		rc.Close()
	}
}

// BenchmarkCacheScan measures the admission gate on LRU's worst case:
// uniform cycles over a working set four times the budget, after two
// warm-up cycles. admissions/op is the share of requests whose body was
// teed into the store; under first-touch admission it is every miss.
func BenchmarkCacheScan(b *testing.B) {
	const (
		blobSize = 16 << 10
		resident = 64
	)
	c := New(blobstore.NewMemory(), resident*blobSize)
	ds := make([]digest.Digest, 4*resident)
	fills := make([]FillFunc, len(ds))
	for i := range ds {
		var content []byte
		content, ds[i] = blobOfSize(10+i, blobSize)
		fills[i] = bytesFill(content, nil)
	}
	request := func(i int) {
		rc, _, _, err := c.GetOrFill(context.Background(), ds[i%len(ds)], fills[i%len(ds)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, rc); err != nil {
			b.Fatal(err)
		}
		rc.Close()
	}
	for i := 0; i < 2*len(ds); i++ {
		request(i)
	}
	before := c.Stats()
	b.SetBytes(blobSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
	b.StopTimer()
	// Every admission adds an entry; every eviction removes one.
	after := c.Stats()
	admissions := after.Entries - before.Entries + after.Evictions - before.Evictions
	b.ReportMetric(float64(admissions)/float64(b.N), "admissions/op")
}
