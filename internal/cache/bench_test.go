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
	// Every stripe can hold every body: nothing is evicted, and at b.N = 1
	// (make bench-smoke) the blob is not declared out of a stripe's reach
	// and handed through un-teed.
	c := New(blobstore.NewMemory(), DefaultShards*int64(b.N+1)<<20)
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
