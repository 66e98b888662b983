// Package blobstore implements the content-addressed blob storage backing
// the registry substrate. Blobs are keyed by their SHA-256 digest, the same
// addressing Docker registries use for layer tarballs and manifests.
//
// Two backends are provided: an in-memory store for tests and model-scale
// experiments, and a disk store that shards blobs across two-level
// directories (like registry:2's filesystem driver) for materialized
// datasets.
package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/digest"
)

// ErrNotFound is returned when a requested blob does not exist.
var ErrNotFound = errors.New("blobstore: blob not found")

// ErrDigestMismatch is returned by Put when content does not match the
// digest it was stored under.
var ErrDigestMismatch = errors.New("blobstore: content does not match digest")

// Store is the interface shared by all blob store backends.
type Store interface {
	// Put stores content under its digest and returns the digest. Putting
	// the same content twice is a cheap no-op (content addressing).
	Put(content []byte) (digest.Digest, error)
	// PutVerified stores content that must hash to want.
	PutVerified(want digest.Digest, content []byte) error
	// PutStream stores a blob that must hash to want, reading it
	// incrementally from r: no backend buffers the whole blob beyond what
	// storage itself requires (Memory keeps one copy because that IS the
	// storage; Disk streams through the hasher into a temp file and renames
	// into place on digest match, the one commit path behind its Put and
	// PutVerified too). The stream is always consumed to EOF and
	// verified, even when the blob is already present, so callers can hand
	// over live network bodies. Returns the number of bytes read.
	PutStream(want digest.Digest, r io.Reader) (int64, error)
	// Get returns a reader over the blob and its size.
	Get(d digest.Digest) (io.ReadCloser, int64, error)
	// Stat returns the blob size, or ErrNotFound.
	Stat(d digest.Digest) (int64, error)
	// Has reports whether the blob exists.
	Has(d digest.Digest) bool
	// Len returns the number of stored blobs.
	Len() int
	// TotalBytes returns the sum of stored blob sizes (deduplicated, since
	// identical content shares one entry).
	TotalBytes() int64
	// Digests returns all stored digests in unspecified order.
	Digests() []digest.Digest
	// Delete removes a blob; deleting a missing blob returns ErrNotFound.
	Delete(d digest.Digest) error
}

// Memory is an in-memory Store, safe for concurrent use.
type Memory struct {
	mu    sync.RWMutex
	blobs map[digest.Digest][]byte
	bytes int64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{blobs: make(map[digest.Digest][]byte)}
}

// Put implements Store.
func (m *Memory) Put(content []byte) (digest.Digest, error) {
	d := digest.FromBytes(content)
	m.put(d, content)
	return d, nil
}

// PutVerified implements Store.
func (m *Memory) PutVerified(want digest.Digest, content []byte) error {
	if digest.FromBytes(content) != want {
		return fmt.Errorf("%w: want %s", ErrDigestMismatch, want)
	}
	m.put(want, content)
	return nil
}

// put stores content under d, which the caller has computed from it: each
// exported entry point hashes exactly once.
func (m *Memory) put(d digest.Digest, content []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[d]; !ok {
		m.blobs[d] = append([]byte(nil), content...)
		m.bytes += int64(len(content))
	}
}

// copyBufPool recycles the chunk buffers used by streaming ingest, so the
// per-blob allocation cost on the download hot path is independent of blob
// size (the acceptance bar for the zero-buffer path).
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// onlyWriter hides optional interfaces (ReaderFrom in particular) so
// io.CopyBuffer actually uses the pooled buffer instead of letting
// *os.File allocate its own.
type onlyWriter struct{ w io.Writer }

func (o onlyWriter) Write(p []byte) (int, error) { return o.w.Write(p) }

// CopyBody streams a blob body to dst — the one copy loop behind every HTTP
// response that carries a blob or manifest. A source that can push itself
// (memReader, *os.File, the dedup store's reconstructing reader, the cache's
// fill tee) does so straight into dst, keeping sendfile and the one-Write
// memory hit; anything else is copied through a pooled buffer with dst's
// ReaderFrom hidden, because an http.ResponseWriter's ReadFrom ends in
// net.genericReadFrom, which allocates a fresh 32 KiB buffer per response
// for every source that is not an *os.File. Ranged responses pass an
// io.LimitReader and take the pooled-buffer path.
func CopyBody(dst io.Writer, src io.Reader) (int64, error) {
	if wt, ok := src.(io.WriterTo); ok {
		return wt.WriteTo(dst)
	}
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(onlyWriter{dst}, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// DrainVerify consumes r to EOF through a hasher and checks the digest —
// the ingest path for blobs that are already stored, where content
// addressing makes a second copy pointless but the caller's stream (often a
// live HTTP body) still has to be consumed and integrity-checked. Exported
// for alternative Store implementations (the dedup backend's singleflight
// losers hand their streams here).
func DrainVerify(want digest.Digest, r io.Reader) (int64, error) {
	h := getHasher()
	defer putHasher(h)
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(h, r, *bp)
	copyBufPool.Put(bp)
	if err != nil {
		return n, fmt.Errorf("blobstore: reading stream: %w", err)
	}
	return n, verify(want, h)
}

// verify checks that h hashed to want.
func verify(want digest.Digest, h *digest.Hasher) error {
	if h.Matches(want) {
		return nil
	}
	return fmt.Errorf("%w: want %s, got %s", ErrDigestMismatch, want.Short(), h.Digest().Short())
}

// hasherPool recycles the hashers that verify incoming streams.
var hasherPool = sync.Pool{New: func() any { return digest.NewHasher() }}

func getHasher() *digest.Hasher { return hasherPool.Get().(*digest.Hasher) }

func putHasher(h *digest.Hasher) {
	h.Reset()
	hasherPool.Put(h)
}

// PutStream implements Store. The incoming bytes are accumulated in a
// pooled scratch buffer while hashing, so repeated ingests reuse growth;
// only the final stored copy is allocated at exact size.
func (m *Memory) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	if m.Has(want) {
		return DrainVerify(want, r)
	}
	buf := memBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		memBufPool.Put(buf)
	}()
	h := getHasher()
	defer putHasher(h)
	n, err := buf.ReadFrom(io.TeeReader(r, h))
	if err != nil {
		return n, fmt.Errorf("blobstore: reading stream: %w", err)
	}
	if err := verify(want, h); err != nil {
		return n, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[want]; !ok {
		m.blobs[want] = append([]byte(nil), buf.Bytes()...)
		m.bytes += n
	}
	return n, nil
}

// memBufPool recycles the scratch buffers PutStream accumulates into.
var memBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// memReader is a no-op-close reader over one blob. Returning it directly
// halves Get's allocations versus io.NopCloser(bytes.NewReader(b)), which
// matters on the analysis hot path where every layer walk starts with a
// Get.
type memReader struct{ bytes.Reader }

func (*memReader) Close() error { return nil }

// Get implements Store.
func (m *Memory) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	m.mu.RLock()
	b, ok := m.blobs[d]
	m.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	r := new(memReader)
	r.Reset(b)
	return r, int64(len(b)), nil
}

// Stat implements Store.
func (m *Memory) Stat(d digest.Digest) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[d]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	return int64(len(b)), nil
}

// Has implements Store.
func (m *Memory) Has(d digest.Digest) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.blobs[d]
	return ok
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blobs)
}

// TotalBytes implements Store.
func (m *Memory) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Digests implements Store.
func (m *Memory) Digests() []digest.Digest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]digest.Digest, 0, len(m.blobs))
	for d := range m.blobs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delete implements Store.
func (m *Memory) Delete(d digest.Digest) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[d]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	m.bytes -= int64(len(b))
	delete(m.blobs, d)
	return nil
}

// Disk is a Store persisting blobs under root/<hex[0:2]>/<hex>, the
// two-level sharding registry:2 uses. It is safe for concurrent use.
type Disk struct {
	root string

	mu    sync.RWMutex
	sizes map[digest.Digest]int64 // index built at open, maintained on Put
	bytes int64
}

// NewDisk opens (creating if needed) a disk store rooted at dir, indexes
// any existing blobs and removes what temp files of crashed puts it can.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: creating root: %w", err)
	}
	d := &Disk{root: dir, sizes: make(map[digest.Digest]int64)}
	if err := d.index(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Disk) index() error {
	shards, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("blobstore: indexing: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(d.root, shard.Name()))
		if err != nil {
			return fmt.Errorf("blobstore: indexing shard %s: %w", shard.Name(), err)
		}
		for _, e := range entries {
			// A put's temp file is <hex>.tmp-<random>, or <hex>.tmp as earlier
			// versions of the store named it.
			hex, rest, temp := strings.Cut(e.Name(), ".tmp")
			dg, err := digest.Parse(digest.Algorithm + ":" + hex)
			switch {
			case err != nil || temp && rest != "" && rest[0] != '-':
				continue // foreign file; ignore
			case temp: // a crash's leftover; never indexed, so kept if it must be
				os.Remove(filepath.Join(d.root, shard.Name(), e.Name()))
				continue
			}
			info, err := e.Info()
			if err != nil {
				return fmt.Errorf("blobstore: stat %s: %w", e.Name(), err)
			}
			d.sizes[dg] = info.Size()
			d.bytes += info.Size()
		}
	}
	return nil
}

func (d *Disk) path(dg digest.Digest) string {
	hex := dg.Hex()
	return filepath.Join(d.root, hex[:2], hex)
}

// Put implements Store, through PutStream's commit: the bytes in hand are
// hashed once, here, and written in one call.
func (d *Disk) Put(content []byte) (digest.Digest, error) {
	dg := digest.FromBytes(content)
	_, err := d.commit(dg, bytes.NewReader(content), nil)
	return dg, err
}

// PutVerified implements Store, as Put does.
func (d *Disk) PutVerified(want digest.Digest, content []byte) error {
	if digest.FromBytes(content) != want {
		return fmt.Errorf("%w: want %s", ErrDigestMismatch, want)
	}
	_, err := d.commit(want, bytes.NewReader(content), nil)
	return err
}

// PutStream implements Store: bytes stream through the SHA-256 hasher into
// a uniquely named temp file that is renamed into place only on digest
// match, so no full-blob []byte ever materializes and a crash can never
// publish a half-written or corrupt blob. Concurrent ingests of the same
// digest are safe: each writes its own temp file and the rename is atomic.
func (d *Disk) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	h := getHasher()
	defer putHasher(h)
	return d.commit(want, r, h)
}

// commit is the one write path: r into a temp file of its own, renamed to
// want's path. h checks r against want; nil means the caller hashed want
// from r's very bytes.
func (d *Disk) commit(want digest.Digest, r io.Reader, h *digest.Hasher) (int64, error) {
	if d.Has(want) {
		if h == nil {
			return 0, nil
		}
		return DrainVerify(want, r)
	}
	p := d.path(want)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return 0, fmt.Errorf("blobstore: creating shard: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(p), filepath.Base(p)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("blobstore: creating temp blob: %w", err)
	}
	tmp := f.Name()
	if h != nil {
		r = io.TeeReader(r, h)
	}
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(onlyWriter{f}, r, *bp)
	copyBufPool.Put(bp)
	if err == nil {
		// Readable as a file written with mode 0644, not CreateTemp's 0600.
		err = errors.Join(f.Chmod(0o644), f.Close())
	} else {
		f.Close()
		err = fmt.Errorf("blobstore: streaming blob: %w", err)
	}
	if err == nil && h != nil {
		err = verify(want, h)
	}
	if err != nil {
		os.Remove(tmp)
		return n, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sizes[want]; ok {
		// A concurrent ingest of the same content won the race.
		os.Remove(tmp)
		return n, nil
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return n, fmt.Errorf("blobstore: committing blob: %w", err)
	}
	d.sizes[want] = n
	d.bytes += n
	return n, nil
}

// Get implements Store.
func (d *Disk) Get(dg digest.Digest) (io.ReadCloser, int64, error) {
	d.mu.RLock()
	size, ok := d.sizes[dg]
	d.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, dg)
	}
	f, err := os.Open(d.path(dg))
	if err != nil {
		return nil, 0, fmt.Errorf("blobstore: opening blob: %w", err)
	}
	return f, size, nil
}

// Stat implements Store.
func (d *Disk) Stat(dg digest.Digest) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	size, ok := d.sizes[dg]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, dg)
	}
	return size, nil
}

// Has implements Store.
func (d *Disk) Has(dg digest.Digest) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.sizes[dg]
	return ok
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sizes)
}

// TotalBytes implements Store.
func (d *Disk) TotalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bytes
}

// Delete implements Store.
func (d *Disk) Delete(dg digest.Digest) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	size, ok := d.sizes[dg]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, dg)
	}
	if err := os.Remove(d.path(dg)); err != nil {
		return fmt.Errorf("blobstore: deleting blob: %w", err)
	}
	delete(d.sizes, dg)
	d.bytes -= size
	return nil
}

// Digests implements Store.
func (d *Disk) Digests() []digest.Digest {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]digest.Digest, 0, len(d.sizes))
	for dg := range d.sizes {
		out = append(out, dg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
