// Package dedupstore implements the registry storage backend the paper's
// findings motivate (§VI: "we plan to utilize our deduplication
// observations to improve storage efficiency for Docker registry"): a
// blobstore.Store whose layer blobs are decomposed into their member
// files, each file content stored once in a shared content-addressed pool,
// and each blob kept only as a small recipe (member metadata plus content
// digests).
//
// Because only ~3% of files across Docker Hub are unique (§V-B), the pool
// holds a fraction of the logical bytes. Dedup alone gives back about half
// of what the wire's gzip had saved, so the pool keeps each compressible
// entry packed: a file or raw blob of at least 256 B whose flate encoding
// is at most ¾ of its size is held in that form, in a namespace of its
// own (see Pool). The backend is streaming and concurrent end to end:
//
//   - PutStream decomposes the layer tar as the bytes cross the wire —
//     hash-as-you-go through the same tee plumbing as the plain backends,
//     buffering one file at a time (pooled), never the whole layer. What
//     the blob is, and how it is framed, is tarutil's to say: the store
//     reads it through a tarutil.Layer, decomposes a Gzip or Plain one and
//     pools a NotTar one (manifests, configs) whole, as one entry.
//     Concurrent pushes of the same blob coalesce (singleflight), and
//     duplicate files across concurrent pushes coalesce again inside the
//     lock-striped pool. The walk is observable: a reader that carries a
//     blobstore.MemberObserver is told of every member and of the commit,
//     so the live analytics walk is fed from this pass instead of
//     gunzipping and hashing the layer again.
//   - Get reconstructs the wire blob on read: the recipe is inflated and
//     walked in place, and each file streams from the pool (a packed one
//     through an inflater) into the tar builder, re-gzipped when the
//     original was gzip-framed, straight into the consumer: the reader is
//     an io.WriterTo that runs the reassembly on the caller's goroutine,
//     and Read is an adapter over it for consumers that must pull. Its
//     buffers and codecs come from free lists that outlive garbage
//     collections, and each member's pool entry is found by the recipe's
//     raw digest, so a cold Get allocates per blob, not per member, beyond
//     each file's pool reader. An optional reconstruction cache
//     (internal/cache) absorbs the recompression cost of
//     popularity-skewed pull traffic.
//   - Delete is reference counted and safe under concurrent pulls: a
//     reconstructing reader pins its recipe, so a blob deleted mid-read
//     finishes streaming and its file references are released only when
//     the last reader closes.
//
// Reassembly must be bit-exact — registry clients verify blobs against
// their digests — so no Get serves a recipe before a round-trip proof has
// passed: the decomposed blob is reassembled (and recompressed) from the
// recipe through a hasher and compared with the wire digest, over exactly
// the bytes every later Get reads — packed members included, each inflated
// back from the pool. Layers built by tarutil always pass: their metadata
// is fixed, and a tarutil.Builder deflates at one level, so the
// reassembly's gzip bytes are the original's. A put tees its wire bytes
// into a spool, up to 1 MiB of a layer's (a larger Put lends its own,
// uncopied), and when a processor would otherwise sit idle it commits the
// layer as pending and hands the proof, and the spool, to a background
// prover: a pending blob answers Stat and Has at once, while Get and
// Delete wait for its proof. Otherwise the put proves inline. A blob that
// fails to decompose or to reproduce is committed verbatim from a spool
// that holds all of it, so an acknowledged push is never lost; only a
// foreign layer too large to spool is refused, rather than served as bytes
// that would fail client-side verification.
package dedupstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/digest"
	"repro/internal/engine"
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
// cannot carry, or non-deterministic compression framing) and are too
// large for its spool. Smaller ones, and every blob Put and PutVerified
// are handed, are stored verbatim instead.
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
	// FileBytes is the content bytes of the shared content-addressed pool
	// (deduplicated file contents plus raw blobs), as if none were packed.
	FileBytes int64
	// PoolBytes is what the pool's backings hold: FileBytes with the
	// packed files counted at their packed size.
	PoolBytes int64
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
func (s Stats) PhysicalBytes() int64 { return s.PoolBytes + s.RecipeBytes }

// SavingsRatio is logical/physical — the realized savings of dedup and
// packing together. An empty store has saved nothing yet stores everything
// it holds, so the ratio is 1.0, not 0: ratio plots start at the identity,
// not a bogus origin dip.
func (s Stats) SavingsRatio() float64 {
	p := s.PhysicalBytes()
	if p <= 0 {
		return 1.0
	}
	return float64(s.LogicalBytes) / float64(p)
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
	// blobs), exactly as long as it is counted. Recipes are held
	// compressed — the 32-byte content digests are incompressible but
	// names and sizes shrink ~3x — and inflated on demand into a pooled
	// buffer that is walked in place: reconstruction already pays a gzip
	// of megabytes, so inflating a few KB of metadata is noise.
	recipeZ []byte
	logical int64 // decomposed content bytes (accounting)
	files   int64 // file instances (accounting)

	// readers counts in-flight reconstructing reads pinning the recipe's
	// pool files; condemned marks an entry deleted while pinned, whose
	// references the last reader releases.
	readers   int
	condemned bool

	// proof, while not nil, is closed when the entry's background proof
	// ends: the entry is pending, and no reader is let at its recipe.
	proof chan struct{}
}

// Store is a file-level deduplicating blobstore.Store. Safe for concurrent
// use.
type Store struct {
	pool  *Pool
	cache *cache.Cache

	mu      sync.RWMutex
	blobs   map[digest.Digest]*blobEntry
	flights blobstore.Flights // blob puts in progress
	busy    int               // ingests and background proofs running

	layers      int
	raw         int
	logical     int64
	wire        int64
	recipeBytes int64
	instances   int64
}

// Store must satisfy the backend interface the registry serves from.
var _ blobstore.Store = (*Store)(nil)

// NewWithConfig creates a Store over the given file pool, tuned by cfg
// (the zero Config is a store without a reconstruction cache).
func NewWithConfig(pool *Pool, cfg Config) *Store {
	s := &Store{
		pool:    pool,
		blobs:   make(map[digest.Digest]*blobEntry),
		flights: make(blobstore.Flights),
	}
	if cfg.CacheBytes > 0 {
		s.cache = cache.New(blobstore.NewMemory(), cfg.CacheBytes)
	}
	return s
}

// maxFilePrealloc bounds a stream's spool and the file buffer a member's
// tar header may size up front: the size field is the uploader's claim.
const maxFilePrealloc = 1 << 20

// Free lists of scratch state for the streaming put/get paths: the working
// memory of a put, with its one-file-at-a-time content buffer, of a
// reassembly, and of an inflated recipe, each with the codec state it
// needs. Recycling these is what makes per-blob allocation O(largest
// file), not O(layer); keeping them across garbage collections is what
// keeps a cold Get from rebuilding a deflater.
var (
	putScratches   = engine.NewFreeList[putScratch]()
	writeScratches = engine.NewFreeList[writeScratch]()
	recipeBufs     = engine.NewFreeList[recipeBuf]()
	spools         = engine.NewFreeList[spool]()
)

// writeScratch is the working memory of one reassembly, kept as one value
// so a blob costs one free-list round trip: the tar builder, with its
// deflater, the buffer between the tar/gzip stream and the sink, and the
// inflater packed members are read through. The builder and the buffer are
// made on first use.
//
// The buffer is why the sink sees few large writes: compress/flate hands
// its output on in ~240-byte pieces, and unbuffered every piece of a cold
// pull would be a write(2) on the response, a pipe rendezvous behind Read or
// the cache tee, and a block call on the proof's hasher.
type writeScratch struct {
	tb *tarutil.Builder
	bw *bufio.Writer
	in inflater
}

// recipeBuf holds one inflated recipe: the encoding, the reader the
// inflater drains the at-rest bytes from, and the inflater, made on first
// use. Whoever holds it owns it until it goes back to recipeBufs.
type recipeBuf struct {
	src bytes.Reader
	enc bytes.Buffer
	fr  io.ReadCloser // a flate.Resetter
}

// putScratch is the working memory of one put: the buffer each member file
// is read into, the recipe's encoding, written member by member as the
// walk pools them, the recipe's deflater, made on first use, and its
// output before the exact-size copy the store keeps, and the packer for
// the new entries the put pools.
type putScratch struct {
	file bytes.Buffer
	enc  recipeEncoder
	fw   *flate.Writer
	z    bytes.Buffer
	pk   packer
}

// spool holds a put's wire bytes: a raw blob's content, the background
// prover's input, and the source of every verbatim commit. The tee fills
// it with up to limit bytes (over: the blob outgrew it). A Put of more
// than maxFilePrealloc bytes lends it the caller's bytes instead, which no
// prover gets: a blob that large proves inline. release drops a buffer
// above maxFilePrealloc, a lent one included, so the free list keeps none.
type spool struct {
	b     []byte
	limit int
	over  bool
	lent  bool
}

// getSpool returns the spool of a Put of content, or of a stream (nil).
func getSpool(content []byte) *spool {
	if len(content) > maxFilePrealloc {
		return &spool{b: content, lent: true}
	}
	sp := spools.Get()
	sp.limit = maxFilePrealloc
	return sp
}

func (sp *spool) Write(p []byte) (int, error) {
	n := len(sp.b) + len(p)
	switch {
	case sp.lent || sp.over:
	case n > sp.limit:
		sp.over = true
	default:
		if n > cap(sp.b) {
			sp.b = append(make([]byte, 0, min(max(2*cap(sp.b), n), sp.limit)), sp.b...)
		}
		sp.b = append(sp.b, p...)
	}
	return len(p), nil
}

func (sp *spool) release() {
	if cap(sp.b) > maxFilePrealloc {
		sp.b = nil
	}
	sp.b, sp.over, sp.lent = sp.b[:0], false, false
	spools.Put(sp)
}

// release bounds ps's buffers and returns it to putScratches: the list
// outlives garbage collections, so it keeps no buffer a large file, raw
// blob or recipe grew past maxFilePrealloc.
func (ps *putScratch) release() {
	bound(&ps.file)
	bound(&ps.z)
	bound(&ps.pk.z)
	if cap(ps.enc.buf) > maxFilePrealloc {
		ps.enc.buf = nil
	}
	putScratches.Put(ps)
}

// bound drops b's storage if it has grown past maxFilePrealloc.
func bound(b *bytes.Buffer) {
	if b.Cap() > maxFilePrealloc {
		*b = bytes.Buffer{}
	}
}

// Put implements blobstore.Store: a PutStream of the bytes in hand, whose
// spool holds them all.
func (s *Store) Put(content []byte) (digest.Digest, error) {
	d := digest.FromBytes(content)
	_, err := s.put(d, bytes.NewReader(content), content)
	return d, err
}

// PutVerified implements blobstore.Store, as Put does.
func (s *Store) PutVerified(want digest.Digest, content []byte) error {
	_, err := s.put(want, bytes.NewReader(content), content)
	return err
}

// PutStream implements blobstore.Store: the blob is decomposed into the
// pool as it is read — one pooled file buffer of look-back and the spool,
// never more than 1 MiB of the layer. Concurrent puts of the same digest
// coalesce: one writer decomposes, the rest drain-and-verify their own
// streams.
//
// When r carries a blobstore.MemberObserver the decomposition reports each
// member to it, so a second consumer of the layer's contents (the live
// analytics walk) rides this walk instead of inflating the blob again.
// Only a put that walks the whole blob and commits it, as a recipe or
// verbatim, reaches End; one whose walk fails reports members but no End, a
// put that finds the blob stored or coalesces onto another flight claims
// the observer and reports nothing, and a raw blob never asks for it.
func (s *Store) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	return s.put(want, r, nil)
}

// put is the singleflight shell around ingest; content is getSpool's.
func (s *Store) put(want digest.Digest, r io.Reader, content []byte) (int64, error) {
	for {
		s.mu.Lock()
		if _, ok := s.blobs[want]; ok {
			s.mu.Unlock()
			// Claiming the stream's observer, with nothing to report, tells
			// its carrier that this duplicate needs no walk of its own.
			blobstore.ObserverOf(r)
			return blobstore.DrainVerify(want, r)
		}
		f, won := s.flights.Claim(want)
		if won {
			s.busy++
		}
		s.mu.Unlock()
		if !won {
			// Success: loop to drain against the stored blob. Failure: loop
			// to retry as the next winner with our own unconsumed stream.
			f.Wait(context.Background())
			continue
		}
		ps := putScratches.Get()
		n, err := s.ingest(want, r, getSpool(content), ps)
		ps.release()
		s.mu.Lock()
		s.busy--
		s.flights.Land(want, f, err)
		s.mu.Unlock()
		return n, err
	}
}

// ingest stores the blob down the path its framing (tarutil.OpenLayer)
// picks, teeing its wire bytes into sp, which it owns: a tar, gzip-framed
// or plain, is decomposed; anything else (manifests, configs) is spooled
// whole, verified and pooled raw. A tar is announced to the stream's
// observer; a raw blob leaves it unclaimed, and the registry hands the
// committed bytes to its ingest hook instead.
func (s *Store) ingest(want digest.Digest, r io.Reader, sp *spool, ps *putScratch) (int64, error) {
	h := digest.NewHasher()
	l := tarutil.OpenLayer(io.TeeReader(r, io.MultiWriter(h, sp)))
	defer l.Close()
	if l.Framing() != tarutil.NotTar {
		return s.ingestTar(want, l, h, sp, blobstore.ObserverOf(r), ps)
	}
	defer sp.release()
	sp.limit = math.MaxInt // a raw blob's content is its spool
	if n, err := io.Copy(io.Discard, l); err != nil {
		return n, fmt.Errorf("dedupstore: reading %s: %w", want.Short(), err)
	}
	if !h.Matches(want) {
		return l.WireBytes(), fmt.Errorf("%w: want %s, got %s", blobstore.ErrDigestMismatch, want.Short(), h.Digest().Short())
	}
	return s.ingestRaw(want, sp.b, &ps.pk)
}

// ingestRaw pools a blob verbatim under its own digest, content the caller
// has verified: one pool entry, packed by the same rule as a member file.
// It is the one verbatim commit: of raw blobs, and of tar blobs that do
// not decompose or whose recipe does not reproduce them.
func (s *Store) ingestRaw(want digest.Digest, content []byte, pk *packer) (int64, error) {
	if err := s.pool.add(want, content, pk); err != nil {
		return 0, err
	}
	e := &blobEntry{size: int64(len(content))}
	s.mu.Lock()
	s.blobs[want] = e
	s.count(e, 1)
	s.mu.Unlock()
	return e.size, nil
}

// count adds e's accounting to the store's (sign 1) or takes it out (sign
// -1). s.mu must be held.
func (s *Store) count(e *blobEntry, sign int) {
	s.wire += int64(sign) * e.size
	if e.recipeZ == nil {
		s.raw += sign
		s.logical += int64(sign) * e.size
		return
	}
	s.layers += sign
	s.logical += int64(sign) * e.logical
	s.recipeBytes += int64(sign * len(e.recipeZ))
	s.instances += int64(sign) * e.files
}

// ingestTar decomposes a tar blob, gzip-framed or plain, read through l
// while h hashes its wire bytes and sp spools them: every member file is
// buffered once (pooled), hashed, pooled, and appended to the recipe's
// encoding. Once the wire digest checks out, the recipe is proved: a
// reassembly from it through a hasher must reproduce the exact wire bytes
// — which is also what vouches for whatever l.Walk drained unread after
// the archive, the gzip trailer included. When the blob is spooled and
// fewer puts and proofs run than there are processors, the recipe commits
// at once as pending and a prover goroutine takes the proof and sp;
// otherwise the proof runs here and the recipe commits after it. Any
// failure releases the references the walk took — one per file in the
// encoding so far — and, the one verbatim rule, commits the blob verbatim
// if sp holds all of it and its digest checks out. obs, when non-nil, is
// told of every member as it is pooled and of a commit after a whole walk.
func (s *Store) ingestTar(want digest.Digest, l *tarutil.Layer, h *digest.Hasher, sp *spool, obs blobstore.MemberObserver, ps *putScratch) (int64, error) {
	enc := &ps.enc
	enc.reset()
	var logical, files int64
	fbuf := &ps.file
	walkErr := l.Walk(func(e tarutil.Entry, content io.Reader) error {
		if e.IsDir {
			enc.dir(e.Name)
			if obs != nil {
				obs.Dir(e)
			}
			return nil
		}
		fbuf.Reset()
		if content != nil {
			// Room for the whole member up front, plus the MinRead of spare
			// that ReadFrom wants before it sees EOF, so a buffer fresh from
			// an emptied pool grows once instead of doubling up to size.
			// e.Size is the uploader's claim: past maxFilePrealloc the
			// buffer grows only as bytes actually arrive.
			fbuf.Grow(int(min(e.Size, maxFilePrealloc)) + bytes.MinRead)
			if _, err := fbuf.ReadFrom(content); err != nil {
				return fmt.Errorf("reading %s: %w", e.Name, err)
			}
		}
		if int64(fbuf.Len()) != e.Size {
			return fmt.Errorf("short read of %s: %d of %d bytes", e.Name, fbuf.Len(), e.Size)
		}
		fd := digest.FromBytes(fbuf.Bytes())
		if err := s.pool.add(fd, fbuf.Bytes(), &ps.pk); err != nil {
			return err
		}
		enc.file(e.Name, e.Size, fd)
		logical += e.Size
		files++
		if obs != nil {
			obs.File(e, fd, fbuf.Bytes())
		}
		return nil
	})
	fail := func(err error) (int64, error) {
		defer sp.release()
		s.unrefFiles(enc.members())
		if sp.over || !h.Matches(want) {
			return l.WireBytes(), err
		}
		n, err := s.ingestRaw(want, sp.b, &ps.pk)
		if err == nil && walkErr == nil && obs != nil {
			obs.End(n)
		}
		return n, err
	}
	if walkErr != nil {
		return fail(fmt.Errorf("dedupstore: decomposing %s: %w", want.Short(), walkErr))
	}
	if got := h.Digest(); got != want {
		return fail(fmt.Errorf("%w: want %s, got %s", blobstore.ErrDigestMismatch, want.Short(), got.Short()))
	}

	rec := enc.finish(l.Framing() == tarutil.Gzip)
	e := &blobEntry{size: l.WireBytes(), recipeZ: compressRecipe(rec, ps), logical: logical, files: files}
	s.mu.Lock()
	if !sp.over && len(sp.b) <= maxFilePrealloc && s.busy < runtime.GOMAXPROCS(0) {
		// A processor would sit idle: the returning put hands it the proof.
		e.proof = make(chan struct{})
		s.busy++
	}
	s.mu.Unlock()
	if e.proof == nil {
		if err := s.prove(want, rec); err != nil {
			return fail(err)
		}
	}
	s.mu.Lock()
	s.blobs[want] = e
	s.count(e, 1)
	s.mu.Unlock()
	if e.proof != nil {
		go s.proveLater(want, e, sp)
	} else {
		sp.release()
	}
	if obs != nil {
		obs.End(e.size)
	}
	return e.size, nil
}

// prove reassembles a recipe, given as its encoding, through a hasher, and
// fails with ErrNotReproducible unless that yields exactly want's bytes:
// clients verifying their pulls would reject anything else Get served.
func (s *Store) prove(want digest.Digest, rec []byte) error {
	vh := digest.NewHasher()
	if err := s.writeBlob(rec, vh); err != nil {
		return fmt.Errorf("%w: reassembling %s: %w", ErrNotReproducible, want.Short(), err)
	}
	if got := vh.Digest(); got != want {
		return fmt.Errorf("%w: %s reassembles to %s", ErrNotReproducible, want.Short(), got.Short())
	}
	return nil
}

// proveLater runs a pending entry's proof on a prover goroutine, from the
// at-rest recipe every later Get reads. If it fails, the bytes of the put's
// spool, sp, are committed verbatim in the entry's place and the recipe's
// references are released; only a failing pool write loses the blob. The
// store is settled by the time the entry leaves the pending state, and
// closing its proof channel, which lets waiting readers on, is the last
// thing the prover does.
func (s *Store) proveLater(want digest.Digest, e *blobEntry, sp *spool) {
	rb, err := inflateRecipe(e.recipeZ)
	if err == nil {
		err = s.prove(want, rb.enc.Bytes())
	}
	var raw *blobEntry
	if err != nil {
		ps := putScratches.Get()
		if s.pool.add(want, sp.b, &ps.pk) == nil {
			raw = &blobEntry{size: e.size}
		}
		ps.release()
	}
	if rb != nil {
		if c, cerr := openRecipe(rb.enc.Bytes()); err != nil && cerr == nil {
			s.unrefFiles(c)
		}
		putRecipeBuf(rb)
	}
	sp.release()
	s.mu.Lock()
	if err != nil {
		s.count(e, -1)
		delete(s.blobs, want)
		if raw != nil {
			s.blobs[want] = raw
			s.count(raw, 1)
		}
	}
	proof := e.proof
	e.proof = nil
	s.busy--
	s.mu.Unlock()
	close(proof)
}

// compressRecipe flate-compresses a recipe's encoding for at-rest storage,
// through the put's scratch, and returns an exact-size copy: the bytes the
// store holds are the bytes Stats.RecipeBytes counts.
func compressRecipe(enc []byte, ps *putScratch) []byte {
	ps.z.Reset()
	if ps.fw == nil {
		ps.fw, _ = flate.NewWriter(&ps.z, flate.DefaultCompression)
	} else {
		ps.fw.Reset(&ps.z)
	}
	// Writes to a bytes.Buffer cannot fail.
	ps.fw.Write(enc)
	ps.fw.Close()
	z := make([]byte, ps.z.Len())
	copy(z, ps.z.Bytes())
	return z
}

// inflateRecipe inflates an at-rest recipe into a buffer from recipeBufs,
// which the caller owns and hands back with putRecipeBuf.
func inflateRecipe(z []byte) (*recipeBuf, error) {
	rb := recipeBufs.Get()
	rb.src.Reset(z)
	rb.enc.Reset()
	if rb.fr == nil {
		rb.fr = flate.NewReader(&rb.src)
	} else if err := rb.fr.(flate.Resetter).Reset(&rb.src, nil); err != nil {
		putRecipeBuf(rb)
		return nil, err
	}
	_, err := rb.enc.ReadFrom(rb.fr)
	if cerr := rb.fr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		putRecipeBuf(rb)
		return nil, fmt.Errorf("dedupstore: inflating recipe: %w", err)
	}
	return rb, nil
}

func putRecipeBuf(rb *recipeBuf) {
	rb.src.Reset(nil)
	bound(&rb.enc)
	recipeBufs.Put(rb)
}

// writeBlob streams the wire bytes of a recipe, given as its encoding, to
// w: a cursor walks the encoding in place, each file streams from the pool
// into the tar builder, and the builder re-gzips the tar, at the one level
// synthetic layers are written at, when the original was gzip-framed. It is
// the one reassembly routine: the put-side proof runs it into a hasher, a
// reader's WriteTo into the consumer, its Read into a pipe.
func (s *Store) writeBlob(rec []byte, w io.Writer) error {
	c, err := openRecipe(rec)
	if err != nil {
		return err
	}
	sc := writeScratches.Get()
	if sc.tb == nil {
		sc.tb, sc.bw = tarutil.NewBuilder(nil), bufio.NewWriterSize(nil, 32<<10)
	}
	sc.bw.Reset(w)
	defer func() {
		sc.bw.Reset(nil)
		writeScratches.Put(sc)
	}()
	framing := tarutil.Plain
	if c.gzip {
		framing = tarutil.Gzip
	}
	b := sc.tb
	b.Reset(sc.bw, framing)
	var k spelled
	for c.next() {
		if c.dir {
			if err := b.Member(c.name, true, 0, nil); err != nil {
				return err
			}
			continue
		}
		c.spell(&k)
		rc, size, err := s.pool.open(&k, &sc.in)
		if err != nil {
			return fmt.Errorf("dedupstore: pool lookup for %s: %w", c.name, err)
		}
		if size != c.size {
			rc.Close()
			return fmt.Errorf("dedupstore: pool content for %s is %d bytes, recipe says %d", c.name, size, c.size)
		}
		err = b.Member(c.name, false, c.size, rc)
		rc.Close()
		if err != nil {
			return err
		}
	}
	if c.err != nil {
		return c.err
	}
	if err := b.Close(); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// Get implements blobstore.Store. Raw blobs stream straight from the
// pool; recipe blobs are reconstructed on the fly (or served from the
// reconstruction cache when configured). The returned size is the wire
// size. A pending blob is served once its proof has ended.
func (s *Store) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	s.mu.RLock()
	e, ok := s.blobs[d]
	var proof chan struct{}
	if ok {
		proof = e.proof
	}
	isRecipe := ok && e.recipeZ != nil
	s.mu.RUnlock()
	switch {
	case !ok:
		return nil, 0, &UnknownBlobError{Digest: d}
	case proof != nil:
		<-proof
		return s.Get(d)
	case !isRecipe:
		k := spell(d)
		return s.pool.open(&k, nil)
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
	if proof := e.proof; proof != nil {
		s.mu.Unlock()
		<-proof
		return s.openReconstruct(d)
	}
	if e.recipeZ == nil {
		s.mu.Unlock()
		k := spell(d)
		return s.pool.open(&k, nil)
	}
	e.readers++
	z, size := e.recipeZ, e.size
	s.mu.Unlock()

	rb, err := inflateRecipe(z)
	if err != nil {
		s.unpin(e)
		return nil, 0, err
	}
	return &blobReader{s: s, e: e, rb: rb}, size, nil
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
// The reader owns the inflated recipe, rb, and gives it up exactly once:
// WriteTo returns it to the pool when the reassembly ends; the first Read
// hands it to the pipe's writer goroutine, which returns it when its
// reassembly ends; Close returns it if neither ran.
//
// Like any reader it belongs to one goroutine; a WriteTo in progress ends
// when its destination fails, not when another goroutine calls Close.
type blobReader struct {
	s  *Store
	e  *blobEntry
	rb *recipeBuf // nil once returned or handed to the pipe's writer

	pr      *io.PipeReader // non-nil once a Read has started the pipe
	written bool           // WriteTo has run the reassembly itself
	cw      countWriter    // WriteTo's destination, counted
	once    sync.Once      // releases the pin
}

func (r *blobReader) Read(p []byte) (int, error) {
	if r.written {
		return 0, io.EOF
	}
	if r.pr == nil {
		pr, pw := io.Pipe()
		r.pr = pr
		s, rb := r.s, r.rb
		r.rb = nil
		go func() {
			pw.CloseWithError(s.writeBlob(rb.enc.Bytes(), pw))
			putRecipeBuf(rb)
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
	r.cw = countWriter{w: w}
	err := r.s.writeBlob(r.rb.enc.Bytes(), &r.cw)
	putRecipeBuf(r.rb)
	r.rb = nil
	r.cw.w = nil
	return r.cw.n, err
}

func (r *blobReader) Close() error {
	if r.pr != nil {
		r.pr.Close()
	}
	if r.rb != nil {
		putRecipeBuf(r.rb)
		r.rb = nil
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
	rb, err := inflateRecipe(e.recipeZ)
	if err != nil {
		// The store compressed these bytes itself, so this cannot happen;
		// leaking the references beats unrefing the wrong files.
		return
	}
	defer putRecipeBuf(rb)
	if c, err := openRecipe(rb.enc.Bytes()); err == nil {
		s.unrefFiles(c)
	}
}

// unrefFiles releases the pool reference of every file c walks.
func (s *Store) unrefFiles(c recipeCursor) {
	var k spelled
	for c.next() {
		if !c.dir {
			c.spell(&k)
			s.pool.unref(&k)
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
// semantics. A pending blob is deleted once its proof has ended.
func (s *Store) Delete(d digest.Digest) error {
	s.mu.Lock()
	e, ok := s.blobs[d]
	if !ok {
		s.mu.Unlock()
		return &UnknownBlobError{Digest: d}
	}
	if proof := e.proof; proof != nil {
		s.mu.Unlock()
		<-proof
		return s.Delete(d)
	}
	delete(s.blobs, d)
	s.count(e, -1)
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
			k := spell(d)
			s.pool.unref(&k)
		}
	}
	return nil
}

// Stats returns the current storage accounting.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	files, content := s.pool.census()
	return Stats{
		Layers:       s.layers,
		RawBlobs:     s.raw,
		LogicalBytes: s.logical,
		WireBytes:    s.wire,
		FileBytes:    content,
		PoolBytes:    s.pool.TotalBytes(),
		RecipeBytes:  s.recipeBytes,
		UniqueFiles:  files,
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
