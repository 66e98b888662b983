// Package dedupstore implements the registry storage backend the paper's
// findings motivate (§VI: "we plan to utilize our deduplication
// observations to improve storage efficiency for Docker registry"): a
// blobstore.Store whose layer blobs are decomposed into their member
// files, each file content stored once in a shared content-addressed pool,
// and each blob kept only as a small recipe (member metadata plus content
// digests).
//
// Because only ~3% of files across Docker Hub are unique (§V-B), the pool
// holds a fraction of the logical bytes. The backend is streaming and
// concurrent end to end:
//
//   - PutStream decomposes the layer tar as the bytes cross the wire —
//     hash-as-you-go through the same tee plumbing as the plain backends,
//     buffering one file at a time (pooled), never the whole layer.
//     Concurrent pushes of the same blob coalesce (singleflight), and
//     duplicate files across concurrent pushes coalesce again inside the
//     lock-striped pool. The walk is observable: a reader that carries a
//     blobstore.MemberObserver is told of every member and of the commit,
//     so the live analytics census is fed from this pass instead of
//     gunzipping and hashing the layer again.
//   - Get reconstructs the wire blob on read: the tar is reassembled from
//     pooled file contents (re-gzipped when the original was
//     gzip-framed) and pushed straight into the consumer — the reader is
//     an io.WriterTo that runs the reassembly on the caller's goroutine,
//     through one pooled buffer; Read is an adapter over the same routine
//     for consumers that must pull. An optional reconstruction cache
//     (internal/cache) absorbs the recompression cost of
//     popularity-skewed pull traffic.
//   - Delete is reference counted and safe under concurrent pulls: a
//     reconstructing reader pins its recipe, so a blob deleted mid-read
//     finishes streaming and its file references are released only when
//     the last reader closes.
//
// Reassembly must be bit-exact — registry clients verify blobs against
// their digests — so every put proves round-trip fidelity before
// committing: the decomposed blob is reassembled (and recompressed)
// through a hasher and compared with the wire digest. Layers built by
// tarutil (fixed metadata, deterministic gzip) always pass; a foreign blob
// that does not reproduce is stored verbatim by Put/PutVerified, while
// PutStream — whose input is already consumed — reports
// ErrNotReproducible rather than serve bytes that would fail client-side
// verification.
package dedupstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/digest"
	"repro/internal/tarutil"
)

// ErrUnknownLayer is the sentinel for blobs never stored. Lookups return
// an *UnknownBlobError carrying the digest; it matches both this sentinel
// and blobstore.ErrNotFound under errors.Is, so the registry's blob
// handler maps it to the v2 BLOB_UNKNOWN envelope like any other backend's
// miss.
var ErrUnknownLayer = errors.New("dedupstore: unknown blob")

// ErrNotReproducible is returned by PutStream for blobs that decompose but
// do not reassemble bit-identically (foreign tar metadata the recipe
// cannot carry, or non-deterministic compression framing). Put and
// PutVerified fall back to storing such blobs verbatim instead.
var ErrNotReproducible = errors.New("dedupstore: blob does not reassemble bit-identically")

// UnknownBlobError is the typed not-found error for this backend.
type UnknownBlobError struct {
	Digest digest.Digest
}

func (e *UnknownBlobError) Error() string {
	return fmt.Sprintf("dedupstore: unknown blob %s", e.Digest.Short())
}

// Is matches both the package sentinel and blobstore.ErrNotFound, so
// callers written against the generic Store interface (the registry's
// BLOB_UNKNOWN mapping, the downloader's miss handling) classify this
// backend's misses without knowing about it.
func (e *UnknownBlobError) Is(target error) bool {
	return target == ErrUnknownLayer || target == blobstore.ErrNotFound
}

// Stats reports the storage accounting of a dedup store.
type Stats struct {
	// Layers is the number of decomposed (recipe-backed) blobs.
	Layers int
	// RawBlobs is the number of blobs stored verbatim: manifests, configs,
	// and anything that did not reassemble bit-identically.
	RawBlobs int
	// LogicalBytes is the uncompressed content of decomposed layers plus
	// the verbatim bytes of raw blobs — what a per-layer store would hold
	// with no compression and no sharing.
	LogicalBytes int64
	// WireBytes is the sum of blob wire sizes — what a plain blob store
	// backend would hold for the same population.
	WireBytes int64
	// FileBytes is the bytes held in the shared content-addressed pool
	// (deduplicated file contents plus raw blobs).
	FileBytes int64
	// RecipeBytes is the metadata overhead of all recipes as held at
	// rest (flate-compressed binary encodings).
	RecipeBytes int64
	// UniqueFiles is the pool's entry count.
	UniqueFiles int
	// TotalFiles is the number of file instances across all decomposed
	// layers.
	TotalFiles int64
}

// PhysicalBytes is the store's total footprint (pool + recipes).
func (s Stats) PhysicalBytes() int64 { return s.FileBytes + s.RecipeBytes }

// SavingsRatio is logical/physical — the realized dedup factor. An empty
// store has saved nothing yet stores everything it holds, so the ratio is
// 1.0, not 0: ratio plots start at the identity, not a bogus origin dip.
func (s Stats) SavingsRatio() float64 {
	p := s.PhysicalBytes()
	if p <= 0 {
		return 1.0
	}
	return float64(s.LogicalBytes) / float64(p)
}

// WireSavingsRatio is wire/physical — the realized savings over a plain
// (compressed per-layer) blob store holding the same population. 1.0 for
// an empty store.
func (s Stats) WireSavingsRatio() float64 {
	p := s.PhysicalBytes()
	if p <= 0 {
		return 1.0
	}
	return float64(s.WireBytes) / float64(p)
}

// Config tunes a Store beyond its pool.
type Config struct {
	// CacheBytes, when positive, bounds a reconstructed-blob serving
	// cache: Get answers from it when possible instead of reassembling
	// (and re-gzipping) the blob, which is what keeps pull throughput near
	// the plain backend's on popularity-skewed traffic. 0 disables the
	// cache.
	CacheBytes int64
}

// blobEntry is one stored blob: a recipe for decomposed layers, or nil for
// blobs held verbatim in the pool under their own digest.
type blobEntry struct {
	size int64 // wire size
	// recipeZ is the flate-compressed recipe encoding (nil for raw
	// blobs). Recipes are held compressed — the 32-byte content digests
	// are incompressible but names and sizes shrink ~3x — and decoded on
	// demand: reconstruction already pays a gzip of megabytes, so
	// inflating a few KB of metadata is noise.
	recipeZ []byte
	logical int64 // decomposed content bytes (accounting)
	files   int64 // file instances (accounting)

	// readers counts in-flight reconstructing reads pinning the recipe's
	// pool files; condemned marks an entry deleted while pinned, whose
	// references the last reader releases.
	readers   int
	condemned bool
}

// Store is a file-level deduplicating blobstore.Store. Safe for concurrent
// use.
type Store struct {
	pool  *Pool
	cache *cache.Cache

	mu      sync.RWMutex
	blobs   map[digest.Digest]*blobEntry
	flights map[digest.Digest]*putFlight

	layers      int
	raw         int
	logical     int64
	wire        int64
	recipeBytes int64
	instances   int64
}

// putFlight is one in-progress blob put. err is set before done closes.
type putFlight struct {
	done chan struct{}
	err  error
}

// Store must satisfy the backend interface the registry serves from.
var _ blobstore.Store = (*Store)(nil)

// New creates a Store over the given file pool.
func New(pool *Pool) *Store {
	return NewWithConfig(pool, Config{})
}

// NewWithConfig is New with tuning.
func NewWithConfig(pool *Pool, cfg Config) *Store {
	s := &Store{
		pool:    pool,
		blobs:   make(map[digest.Digest]*blobEntry),
		flights: make(map[digest.Digest]*putFlight),
	}
	if cfg.CacheBytes > 0 {
		s.cache = cache.New(blobstore.NewMemory(), cfg.CacheBytes)
	}
	return s
}

// Pooled scratch state for the streaming put/get paths: the sniffing
// bufio, the gzip inflater/deflater, the one-file-at-a-time content
// buffer, and the chunk buffer used to drain trailers. Recycling these is
// what makes per-blob allocation O(largest file), not O(layer).
var (
	bufReaderPool = sync.Pool{
		New: func() any { return bufio.NewReaderSize(nil, 32<<10) },
	}
	gzipReaderPool sync.Pool // *gzip.Reader; empty until first Put
	fileBufPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	drainBufPool   = sync.Pool{New: func() any {
		b := make([]byte, 32<<10)
		return &b
	}}
	flateWriterPool sync.Pool // *flate.Writer for at-rest recipe compression
	flateReaderPool sync.Pool // flate.Resetter readers for recipe inflation
)

// writeScratch is the working memory of one reassembly, pooled as one value
// so a blob costs one pool round trip: the buffer between the tar/gzip
// stream and the sink, and the deflater at the materializer's level (nil
// until a gzip-framed blob first uses this scratch).
//
// The buffer is why the sink sees few large writes: compress/flate hands
// its output on in ~240-byte pieces, and unbuffered every piece of a cold
// pull would be a write(2) on the response, a pipe rendezvous behind Read or
// the cache tee, and a block call on the proof's hasher.
type writeScratch struct {
	bw *bufio.Writer
	zw *gzip.Writer
}

var writeScratchPool = sync.Pool{New: func() any {
	return &writeScratch{bw: bufio.NewWriterSize(nil, 32<<10)}
}}

// gzipMagic is the two-byte gzip stream signature (RFC 1952).
const gzipMagic = "\x1f\x8b"

// Put implements blobstore.Store. Blobs that decompose but do not
// reassemble bit-identically are stored verbatim (the bytes are in hand,
// so unlike PutStream no fidelity is lost by falling back).
func (s *Store) Put(content []byte) (digest.Digest, error) {
	d := digest.FromBytes(content)
	_, err := s.put(d, bytes.NewReader(content), content)
	return d, err
}

// PutVerified implements blobstore.Store.
func (s *Store) PutVerified(want digest.Digest, content []byte) error {
	if digest.FromBytes(content) != want {
		return fmt.Errorf("%w: want %s", blobstore.ErrDigestMismatch, want)
	}
	_, err := s.put(want, bytes.NewReader(content), content)
	return err
}

// PutStream implements blobstore.Store: the blob is decomposed into the
// pool as it is read — one pooled file buffer of look-back, never the
// whole layer. Concurrent puts of the same digest coalesce: one writer
// decomposes, the rest drain-and-verify their own streams.
//
// When r carries a blobstore.MemberObserver the decomposition reports each
// member to it, so a second consumer of the layer's contents (the live
// analytics census) rides this walk instead of inflating the blob again.
// Only the put that commits the blob as a recipe reaches End; a rejected
// upload reports members but no End, a put that finds the blob stored or
// coalesces onto another flight claims the observer and reports nothing,
// and a raw blob never asks for it.
func (s *Store) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	return s.put(want, r, nil)
}

// put is the singleflight shell around ingest. fallback, when non-nil,
// holds the full blob bytes so a failed decomposition can store the blob
// verbatim instead.
func (s *Store) put(want digest.Digest, r io.Reader, fallback []byte) (int64, error) {
	for {
		s.mu.Lock()
		if _, ok := s.blobs[want]; ok {
			s.mu.Unlock()
			return drainStored(want, r)
		}
		if f, ok := s.flights[want]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err == nil {
				return drainStored(want, r)
			}
			// The winner failed; retry as the next winner with our own
			// (still unconsumed) stream.
			continue
		}
		f := &putFlight{done: make(chan struct{})}
		s.flights[want] = f
		s.mu.Unlock()

		n, err := s.ingest(want, r)
		if err != nil && fallback != nil {
			n, err = s.ingestRaw(want, bytes.NewReader(fallback))
		}
		s.mu.Lock()
		delete(s.flights, want)
		s.mu.Unlock()
		f.err = err
		close(f.done)
		return n, err
	}
}

// drainStored consumes and verifies a stream whose blob the store already
// holds. Claiming the stream's observer, with nothing to report, tells its
// carrier that this duplicate needs no walk of its own.
func drainStored(want digest.Digest, r io.Reader) (int64, error) {
	blobstore.ObserverOf(r)
	return blobstore.DrainVerify(want, r)
}

// countReader counts the wire bytes of a put as they stream past.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ingest classifies the blob from its first bytes — gzip-framed tar, plain
// tar, or raw (manifests, configs) — and stores it down the matching path.
// The sniff stays within blobstore.SniffLen, so a tar is announced to the
// stream's observer in time and a raw blob leaves it unclaimed.
func (s *Store) ingest(want digest.Digest, r io.Reader) (int64, error) {
	cr := &countReader{r: r}
	h := digest.NewHasher()
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(io.TeeReader(cr, h))
	defer func() {
		br.Reset(nil)
		bufReaderPool.Put(br)
	}()

	if magic, _ := br.Peek(len(gzipMagic)); string(magic) == gzipMagic {
		return s.ingestTar(want, cr, h, br, true, blobstore.ObserverOf(r))
	}
	if hdr, _ := br.Peek(512); isTarHeader(hdr) {
		return s.ingestTar(want, cr, h, br, false, blobstore.ObserverOf(r))
	}
	return s.ingestRaw(want, br)
}

// ingestRaw streams a blob verbatim into the pool under its own digest.
func (s *Store) ingestRaw(want digest.Digest, r io.Reader) (int64, error) {
	n, err := s.pool.addStream(want, r)
	if err != nil {
		return n, err
	}
	s.mu.Lock()
	s.blobs[want] = &blobEntry{size: n}
	s.raw++
	s.wire += n
	s.logical += n
	s.mu.Unlock()
	return n, nil
}

// ingestTar decomposes a (possibly gzip-framed) tar blob: every member
// file is buffered once (pooled), hashed, and pooled; the recipe commits
// only after the wire digest checks out and a reassembly through a hasher
// proves the recipe reproduces the exact wire bytes. Any failure releases
// the references the walk took. obs, when non-nil, is told of every member
// as it is pooled and of the commit.
func (s *Store) ingestTar(want digest.Digest, cr *countReader, h *digest.Hasher, br *bufio.Reader, gz bool, obs blobstore.MemberObserver) (int64, error) {
	rec := &Recipe{Gzip: gz}
	var added []digest.Digest
	fail := func(err error) (int64, error) {
		for _, d := range added {
			s.pool.unref(d)
		}
		return cr.n, err
	}

	var src io.Reader = br
	var zr *gzip.Reader
	if gz {
		var err error
		zr, _ = gzipReaderPool.Get().(*gzip.Reader)
		if zr == nil {
			zr, err = gzip.NewReader(br)
		} else {
			err = zr.Reset(br)
		}
		if err != nil {
			if zr != nil {
				gzipReaderPool.Put(zr)
			}
			return fail(fmt.Errorf("dedupstore: opening gzip stream: %w", err))
		}
		src = zr
	}

	var logical, files int64
	fbuf := fileBufPool.Get().(*bytes.Buffer)
	defer func() {
		fbuf.Reset()
		fileBufPool.Put(fbuf)
	}()
	walkErr := tarutil.Walk(src, func(e tarutil.Entry, content io.Reader) error {
		if e.IsDir {
			rec.Entries = append(rec.Entries, RecipeEntry{Name: e.Name, Dir: true})
			if obs != nil {
				obs.Dir(e)
			}
			return nil
		}
		fbuf.Reset()
		if content != nil {
			if _, err := fbuf.ReadFrom(content); err != nil {
				return fmt.Errorf("reading %s: %w", e.Name, err)
			}
		}
		if int64(fbuf.Len()) != e.Size {
			return fmt.Errorf("short read of %s: %d of %d bytes", e.Name, fbuf.Len(), e.Size)
		}
		fd := digest.FromBytes(fbuf.Bytes())
		if err := s.pool.add(fd, fbuf.Bytes()); err != nil {
			return err
		}
		added = append(added, fd)
		rec.Entries = append(rec.Entries, RecipeEntry{Name: e.Name, Size: e.Size, Content: fd})
		logical += e.Size
		files++
		if obs != nil {
			obs.File(e, fd, fbuf.Bytes())
		}
		return nil
	})
	// Consume what the walk left behind — gzip trailers, archive padding —
	// so the wire hash covers the whole stream; then verify it.
	if gz {
		if walkErr == nil {
			walkErr = drainAll(zr)
		}
		closeErr := zr.Close()
		gzipReaderPool.Put(zr)
		if walkErr == nil && closeErr != nil {
			walkErr = closeErr
		}
	}
	if walkErr == nil {
		walkErr = drainAll(br)
	}
	if walkErr != nil {
		return fail(fmt.Errorf("dedupstore: decomposing %s: %w", want.Short(), walkErr))
	}
	if got := h.Digest(); got != want {
		return fail(fmt.Errorf("%w: want %s, got %s", blobstore.ErrDigestMismatch, want.Short(), got.Short()))
	}

	// Round-trip proof: the recipe must reproduce the wire bytes exactly,
	// or clients verifying their pulls would reject what Get serves.
	vh := digest.NewHasher()
	if err := s.writeBlob(rec, vh); err != nil {
		return fail(fmt.Errorf("dedupstore: verifying reassembly of %s: %w", want.Short(), err))
	}
	if got := vh.Digest(); got != want {
		return fail(fmt.Errorf("%w: %s reassembles to %s", ErrNotReproducible, want.Short(), got.Short()))
	}

	z := compressRecipe(rec)
	s.mu.Lock()
	s.blobs[want] = &blobEntry{size: cr.n, recipeZ: z, logical: logical, files: files}
	s.layers++
	s.wire += cr.n
	s.logical += logical
	s.recipeBytes += int64(len(z))
	s.instances += files
	s.mu.Unlock()
	if obs != nil {
		obs.End(cr.n)
	}
	return cr.n, nil
}

// compressRecipe flate-compresses a recipe's binary encoding for at-rest
// storage.
func compressRecipe(rec *Recipe) []byte {
	var buf bytes.Buffer
	fw, _ := flateWriterPool.Get().(*flate.Writer)
	if fw == nil {
		fw, _ = flate.NewWriter(&buf, flate.DefaultCompression)
	} else {
		fw.Reset(&buf)
	}
	// Writes to a bytes.Buffer cannot fail.
	fw.Write(EncodeRecipe(rec))
	fw.Close()
	flateWriterPool.Put(fw)
	return buf.Bytes()
}

// decompressRecipe inflates and decodes an at-rest recipe.
func decompressRecipe(z []byte) (*Recipe, error) {
	fr, _ := flateReaderPool.Get().(io.ReadCloser)
	if fr == nil {
		fr = flate.NewReader(bytes.NewReader(z))
	} else if err := fr.(flate.Resetter).Reset(bytes.NewReader(z), nil); err != nil {
		return nil, err
	}
	enc, err := io.ReadAll(fr)
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	flateReaderPool.Put(fr)
	if err != nil {
		return nil, fmt.Errorf("dedupstore: inflating recipe: %w", err)
	}
	return DecodeRecipe(enc)
}

// drainAll consumes r to EOF through a pooled chunk buffer.
func drainAll(r io.Reader) error {
	bp := drainBufPool.Get().(*[]byte)
	_, err := io.CopyBuffer(io.Discard, r, *bp)
	drainBufPool.Put(bp)
	return err
}

// isTarHeader reports whether block starts with a valid ustar header: the
// stored octal checksum must match the block's byte sum (checksum field
// counted as spaces). An all-zero block — a tar terminator — never
// matches.
func isTarHeader(block []byte) bool {
	if len(block) < 512 {
		return false
	}
	stored, ok := parseOctal(block[148:156])
	if !ok {
		return false
	}
	var unsigned int64
	for i, c := range block[:512] {
		if i >= 148 && i < 156 {
			c = ' '
		}
		unsigned += int64(c)
	}
	return unsigned == stored
}

// parseOctal reads a NUL/space-terminated octal field.
func parseOctal(b []byte) (int64, bool) {
	var v int64
	seen := false
	for _, c := range b {
		if c == ' ' || c == 0 {
			if seen {
				break
			}
			continue
		}
		if c < '0' || c > '7' {
			return 0, false
		}
		v = v<<3 | int64(c-'0')
		seen = true
	}
	return v, seen
}

// writeBlob streams a recipe's wire bytes to w: the tar is rebuilt from
// pooled file contents (one pooled buffer at a time) and re-gzipped at the
// materializer's compression level when the original was gzip-framed, so
// the framing reproduces exactly. It is the one reassembly routine: the
// put-side proof runs it into a hasher, a reader's WriteTo into the
// consumer, its Read into a pipe.
func (s *Store) writeBlob(rec *Recipe, w io.Writer) error {
	sc := writeScratchPool.Get().(*writeScratch)
	sc.bw.Reset(w)
	defer func() {
		sc.bw.Reset(nil)
		writeScratchPool.Put(sc)
	}()
	var tw io.Writer = sc.bw
	if rec.Gzip {
		if sc.zw == nil {
			var err error
			if sc.zw, err = gzip.NewWriterLevel(sc.bw, gzip.DefaultCompression); err != nil {
				return fmt.Errorf("dedupstore: gzip writer: %w", err)
			}
		} else {
			sc.zw.Reset(sc.bw)
		}
		tw = sc.zw
	}
	b := tarutil.NewBuilder(tw)

	fbuf := fileBufPool.Get().(*bytes.Buffer)
	defer func() {
		fbuf.Reset()
		fileBufPool.Put(fbuf)
	}()
	for i := range rec.Entries {
		e := &rec.Entries[i]
		if e.Dir {
			if err := b.Dir(e.Name); err != nil {
				return err
			}
			continue
		}
		rc, _, err := s.pool.open(e.Content)
		if err != nil {
			return fmt.Errorf("dedupstore: pool lookup for %s: %w", e.Name, err)
		}
		fbuf.Reset()
		_, err = fbuf.ReadFrom(rc)
		rc.Close()
		if err != nil {
			return fmt.Errorf("dedupstore: pool read for %s: %w", e.Name, err)
		}
		if int64(fbuf.Len()) != e.Size {
			return fmt.Errorf("dedupstore: pool content for %s is %d bytes, recipe says %d",
				e.Name, fbuf.Len(), e.Size)
		}
		if err := b.File(e.Name, fbuf.Bytes()); err != nil {
			return err
		}
	}
	if err := b.Close(); err != nil {
		return err
	}
	if rec.Gzip {
		if err := sc.zw.Close(); err != nil {
			return fmt.Errorf("dedupstore: closing gzip stream: %w", err)
		}
	}
	return sc.bw.Flush()
}

// Get implements blobstore.Store. Raw blobs stream straight from the
// pool; recipe blobs are reconstructed on the fly (or served from the
// reconstruction cache when configured). The returned size is the wire
// size.
func (s *Store) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	s.mu.RLock()
	e, ok := s.blobs[d]
	isRecipe := ok && e.recipeZ != nil
	s.mu.RUnlock()
	if !ok {
		return nil, 0, &UnknownBlobError{Digest: d}
	}
	if !isRecipe {
		return s.pool.open(d)
	}
	if s.cache != nil {
		rc, size, _, err := s.cache.GetOrFill(context.Background(), d,
			func(ctx context.Context) (io.ReadCloser, int64, error) {
				return s.openReconstruct(d)
			})
		return rc, size, err
	}
	return s.openReconstruct(d)
}

// openReconstruct pins the entry and returns a reader that reassembles the
// blob when it is consumed. The pin guarantees the recipe's pool files
// survive a concurrent Delete until the reader closes.
func (s *Store) openReconstruct(d digest.Digest) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	e, ok := s.blobs[d]
	if !ok {
		s.mu.Unlock()
		return nil, 0, &UnknownBlobError{Digest: d}
	}
	if e.recipeZ == nil {
		s.mu.Unlock()
		return s.pool.open(d)
	}
	e.readers++
	z, size := e.recipeZ, e.size
	s.mu.Unlock()

	rec, err := decompressRecipe(z)
	if err != nil {
		s.unpin(e)
		return nil, 0, err
	}
	return &blobReader{s: s, e: e, rec: rec}, size, nil
}

// unpin drops one reader from a recipe entry and, for a condemned entry's
// last reader, releases the recipe's pool references.
func (s *Store) unpin(e *blobEntry) {
	s.mu.Lock()
	e.readers--
	free := e.condemned && e.readers == 0
	s.mu.Unlock()
	if free {
		s.releaseEntry(e)
	}
}

// blobReader streams one reconstructed blob. WriteTo is the serving path:
// it runs writeBlob on the caller's goroutine, straight into the
// destination — no pipe, no second goroutine. Read serves consumers that
// must pull (a ranged GET skipping a prefix, a decorator that hides
// WriteTo): the first Read starts a pipe fed by the same writeBlob. Close
// stops that writer if it runs and releases the read pin exactly once.
//
// Like any reader it belongs to one goroutine; a WriteTo in progress ends
// when its destination fails, not when another goroutine calls Close.
type blobReader struct {
	s   *Store
	e   *blobEntry
	rec *Recipe

	pr      *io.PipeReader // non-nil once a Read has started the pipe
	written bool           // WriteTo has run the reassembly itself
	once    sync.Once      // releases the pin
}

func (r *blobReader) Read(p []byte) (int, error) {
	if r.written {
		return 0, io.EOF
	}
	if r.pr == nil {
		pr, pw := io.Pipe()
		r.pr = pr
		go func() {
			pw.CloseWithError(r.s.writeBlob(r.rec, pw))
		}()
	}
	return r.pr.Read(p)
}

// WriteTo implements io.WriterTo: everything not yet consumed goes to w.
func (r *blobReader) WriteTo(w io.Writer) (int64, error) {
	if r.pr != nil {
		// A Read already started the pipe; carry on from where it stands.
		return blobstore.CopyBody(w, r.pr)
	}
	if r.written {
		return 0, nil
	}
	r.written = true
	cw := countWriter{w: w}
	err := r.s.writeBlob(r.rec, &cw)
	return cw.n, err
}

func (r *blobReader) Close() error {
	if r.pr != nil {
		r.pr.Close()
	}
	r.once.Do(func() { r.s.unpin(r.e) })
	return nil
}

// countWriter counts the bytes a WriteTo delivered.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// releaseEntry returns every file reference a recipe-backed entry holds.
func (s *Store) releaseEntry(e *blobEntry) {
	rec, err := decompressRecipe(e.recipeZ)
	if err != nil {
		// The store compressed these bytes itself, so this cannot happen;
		// leaking the references beats unrefing the wrong files.
		return
	}
	for i := range rec.Entries {
		if !rec.Entries[i].Dir {
			s.pool.unref(rec.Entries[i].Content)
		}
	}
}

// Stat implements blobstore.Store (wire size).
func (s *Store) Stat(d digest.Digest) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.blobs[d]
	if !ok {
		return 0, &UnknownBlobError{Digest: d}
	}
	return e.size, nil
}

// Has implements blobstore.Store.
func (s *Store) Has(d digest.Digest) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[d]
	return ok
}

// Len implements blobstore.Store: the number of stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// TotalBytes implements blobstore.Store. For this backend it reports the
// PHYSICAL footprint (pool + recipes), not the sum of wire sizes — that is
// the whole point of the backend; the wire total is Stats().WireBytes.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	recipes := s.recipeBytes
	s.mu.RUnlock()
	return s.pool.TotalBytes() + recipes
}

// Digests implements blobstore.Store (sorted, like the other backends).
func (s *Store) Digests() []digest.Digest {
	s.mu.RLock()
	out := make([]digest.Digest, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delete implements blobstore.Store. The blob disappears immediately —
// subsequent Gets miss — but pool bytes referenced by in-flight
// reconstructing reads survive until the last such reader closes
// (condemned entries). Raw blobs release their pool reference at once;
// their already-open readers stay valid by the backing stores' unlink
// semantics.
func (s *Store) Delete(d digest.Digest) error {
	s.mu.Lock()
	e, ok := s.blobs[d]
	if !ok {
		s.mu.Unlock()
		return &UnknownBlobError{Digest: d}
	}
	delete(s.blobs, d)
	s.wire -= e.size
	if e.recipeZ != nil {
		s.layers--
		s.logical -= e.logical
		s.recipeBytes -= int64(len(e.recipeZ))
		s.instances -= e.files
	} else {
		s.raw--
		s.logical -= e.size
	}
	pinned := e.recipeZ != nil && e.readers > 0
	if pinned {
		e.condemned = true
	}
	s.mu.Unlock()

	if s.cache != nil {
		s.cache.Invalidate(d)
	}
	if !pinned {
		if e.recipeZ != nil {
			s.releaseEntry(e)
		} else {
			s.pool.unref(d)
		}
	}
	return nil
}

// Recipe returns the stored recipe for a decomposed blob (nil for raw
// blobs), for tests and diagnostics.
func (s *Store) Recipe(d digest.Digest) *Recipe {
	s.mu.RLock()
	e, ok := s.blobs[d]
	s.mu.RUnlock()
	if !ok || e.recipeZ == nil {
		return nil
	}
	rec, err := decompressRecipe(e.recipeZ)
	if err != nil {
		return nil
	}
	return rec
}

// Stats returns the current storage accounting.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Layers:       s.layers,
		RawBlobs:     s.raw,
		LogicalBytes: s.logical,
		WireBytes:    s.wire,
		FileBytes:    s.pool.TotalBytes(),
		RecipeBytes:  s.recipeBytes,
		UniqueFiles:  s.pool.Len(),
		TotalFiles:   s.instances,
	}
}

// CacheStats snapshots the reconstruction cache's counters (nil when no
// cache is configured).
func (s *Store) CacheStats() *cache.Stats {
	if s.cache == nil {
		return nil
	}
	st := s.cache.Stats()
	return &st
}
