package dedupstore

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// benchLayer builds a 4 MiB gzip layer (256 files × 16 KiB, deterministic
// contents) — large enough that whole-layer buffering would dominate the
// allocation profile.
func benchLayer(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	bld := tarutil.NewGzipBuilder(&buf)
	content := make([]byte, 16<<10)
	seed := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 256; i++ {
		for j := range content {
			seed = seed*6364136223846793005 + 1442695040888963407
			content[j] = byte(seed >> 56)
		}
		if err := bld.File(fmt.Sprintf("data/f%03d.bin", i), content); err != nil {
			b.Fatal(err)
		}
	}
	if err := bld.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchProseLayer is benchLayer's shape, 256 files of the given size, with
// compressible text for contents: every file packs, so ingest pays the
// deflater and reads the inflater.
func benchProseLayer(b *testing.B, fileSize int) []byte {
	b.Helper()
	files := make([][]byte, 256)
	for i := range files {
		files[i] = tapeProse(i, fileSize)
	}
	return tapeLayer(files)
}

// BenchmarkDedupPutStream measures first-copy streaming ingest: decompose,
// pool, verify. B/op must stay O(largest member file), not O(layer) — the
// whole blob never lands in one buffer.
func BenchmarkDedupPutStream(b *testing.B) { benchDedupPutStream(b, benchLayer(b)) }

// BenchmarkDedupPutStreamPacked is DedupPutStream over a layer whose every
// file is packed on its way into the pool.
func BenchmarkDedupPutStreamPacked(b *testing.B) { benchDedupPutStream(b, benchProseLayer(b, 16<<10)) }

// BenchmarkDedupPutStreamPackedSmall is DedupPutStreamPacked over 1 KiB
// files, just over the packing floor: per-member costs dominate.
func BenchmarkDedupPutStreamPackedSmall(b *testing.B) {
	benchDedupPutStream(b, benchProseLayer(b, 1<<10))
}

func benchDedupPutStream(b *testing.B, blob []byte) {
	d := digest.FromBytes(blob)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewWithConfig(NewMemoryPool(0), Config{})
		if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupIngestSequential measures ingest the way hubregistry's
// re-ingest and the benchmark's seeding do it: one goroutine streams every
// blob of a small synthetic hub (dedup-sweep spec, layers, configs and
// manifests) into a fresh store, one PutStream after another, and the op
// ends when the last background proof has. Its wall time falls when the
// proofs run on an otherwise idle processor.
func BenchmarkDedupIngestSequential(b *testing.B) {
	ds, err := synth.Generate(synth.DedupSweepSpec(0.0001))
	if err != nil {
		b.Fatal(err)
	}
	src := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(ds, src); err != nil {
		b.Fatal(err)
	}
	digests := src.Blobs().Digests()
	blobs := make([][]byte, len(digests))
	var total int64
	for i, d := range digests {
		rc, _, err := src.Blobs().Get(d)
		if err != nil {
			b.Fatal(err)
		}
		blobs[i], err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(blobs[i]))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewWithConfig(NewMemoryPool(0), Config{})
		for j, d := range digests {
			if _, err := s.PutStream(d, bytes.NewReader(blobs[j])); err != nil {
				b.Fatal(err)
			}
		}
		if err := awaitIdle(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(digests)), "blobs/op")
}

// BenchmarkDedupPutStreamDuplicate measures the duplicate-push path: the
// blob is already stored, so the stream is only drained and verified.
func BenchmarkDedupPutStreamDuplicate(b *testing.B) {
	blob := benchLayer(b)
	d := digest.FromBytes(blob)
	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupGet measures reconstruct-on-read with no cache: reassemble
// the tar from the pool and re-gzip, streaming.
func BenchmarkDedupGet(b *testing.B) { benchDedupGet(b, benchLayer(b), io.Discard) }

// BenchmarkDedupGetSink is DedupGet drained the way a response is: io.Copy
// into a writer that is nothing but a Writer, so no ReaderFrom with a pool
// of its own (io.Discard has one) can stand in for a copy buffer the read
// path would otherwise have to allocate.
func BenchmarkDedupGetSink(b *testing.B) { benchDedupGet(b, benchLayer(b), plainSink{}) }

// BenchmarkDedupGetPacked is DedupGet of a layer whose every file is held
// packed: each member inflates on its way into the tar.
func BenchmarkDedupGetPacked(b *testing.B) { benchDedupGet(b, benchProseLayer(b, 16<<10), io.Discard) }

// BenchmarkDedupGetPackedSmall is DedupGetPacked over 1 KiB files: each
// member inflates a short stream through the read's one decompressor.
func BenchmarkDedupGetPackedSmall(b *testing.B) {
	benchDedupGet(b, benchProseLayer(b, 1<<10), io.Discard)
}

func benchDedupGet(b *testing.B, blob []byte, sink io.Writer) {
	d := digest.FromBytes(blob)
	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _, err := s.Get(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(sink, rc); err != nil {
			b.Fatal(err)
		}
		rc.Close()
	}
}

// BenchmarkDedupGetCached is the same read served by the reconstruction
// cache after the first fill. The explicit read loop matters: the cached
// reader exposes WriterTo, so io.Copy into a sink would degenerate to one
// zero-copy Write and measure nothing.
func BenchmarkDedupGetCached(b *testing.B) {
	blob := benchLayer(b)
	d := digest.FromBytes(blob)
	// Large enough to hold the 4 MiB blob.
	s := NewWithConfig(NewMemoryPool(0), Config{CacheBytes: 256 << 20})
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _, err := s.Get(d)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := rc.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		rc.Close()
	}
}
