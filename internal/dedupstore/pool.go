package dedupstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// DefaultPoolShards is the stripe count NewMemoryPool/NewDiskPool use when
// the caller passes 0. Sixteen stripes keep lock hold times short under
// the worker fan-outs the serving path runs (8–16 concurrent pulls).
const DefaultPoolShards = 16

// Pool is the shared content-addressed file pool under a dedup Store:
// file contents (and raw blobs) keyed by their SHA-256 digest, reference
// counted, striped across independently locked shards. Writes of the same
// digest coalesce — no matter how many concurrent pushes carry a file,
// exactly one copy streams into the backing store — and a digest's bytes
// are deleted from the backing exactly when its last reference is
// released.
//
// A file the packing rule (pack) takes is held in its packed form instead,
// in a second backing per shard keyed by the digest of the packed bytes.
// The two namespaces never mix: a pushed file can be byte-equal to another
// file's packed form, and one key would then have two owners. Readers
// never see the difference — open returns the content either way.
//
// Safe for concurrent use.
type Pool struct {
	shards []*poolShard
}

// poolShard is one stripe: its two backing stores, refcounts, the packed
// entries' locations, and the flights of its in-progress backing writes.
type poolShard struct {
	backing blobstore.Store // raw contents, keyed by their own digest
	packed  blobstore.Store // packed contents, keyed by the packed bytes' digest

	mu      sync.Mutex
	refs    map[digest.Digest]int64
	packs   map[digest.Digest]packedFile // file digest → its packed form
	flights blobstore.Flights
}

// packedFile locates a packed pool entry: the key of its bytes in the
// shard's packed backing, and the content size they inflate to.
type packedFile struct {
	key  digest.Digest
	size int64
}

// NewPool builds a pool striped over the given backing stores: shard i
// keeps raw contents in raw[i] and packed ones in packed[i], so the slices
// must be equally long. The pool owns the backings: it deletes unreferenced
// entries from them, so they must not be shared with other writers.
func NewPool(raw, packed []blobstore.Store) *Pool {
	p := &Pool{shards: make([]*poolShard, len(raw))}
	for i := range raw {
		p.shards[i] = &poolShard{
			backing: raw[i],
			packed:  packed[i],
			refs:    make(map[digest.Digest]int64),
			packs:   make(map[digest.Digest]packedFile),
			flights: make(blobstore.Flights),
		}
	}
	return p
}

// NewMemoryPool returns a pool over in-memory shards (DefaultPoolShards
// when shards <= 0).
func NewMemoryPool(shards int) *Pool {
	if shards <= 0 {
		shards = DefaultPoolShards
	}
	raw, packed := make([]blobstore.Store, shards), make([]blobstore.Store, shards)
	for i := range raw {
		raw[i], packed[i] = blobstore.NewMemory(), blobstore.NewMemory()
	}
	return NewPool(raw, packed)
}

// NewDiskPool returns a pool over disk shards rooted at dir/sNN, with
// their packed namespaces at dir/pNN (DefaultPoolShards when shards <= 0).
func NewDiskPool(dir string, shards int) (*Pool, error) {
	if shards <= 0 {
		shards = DefaultPoolShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dedupstore: creating pool root: %w", err)
	}
	raw, packed := make([]blobstore.Store, shards), make([]blobstore.Store, shards)
	for i := range raw {
		var err error
		if raw[i], err = blobstore.NewDisk(filepath.Join(dir, fmt.Sprintf("s%02d", i))); err != nil {
			return nil, err
		}
		if packed[i], err = blobstore.NewDisk(filepath.Join(dir, fmt.Sprintf("p%02d", i))); err != nil {
			return nil, err
		}
	}
	return NewPool(raw, packed), nil
}

func (p *Pool) shardFor(d digest.Digest) *poolShard {
	return p.shards[d.Key64()%uint64(len(p.shards))]
}

// packMinSize and pack are the packing rule; see pack.
const packMinSize = 4 << 10

// pack returns the packed form of a file's content, or nil when the file
// stays raw. A file is packed when it is at least packMinSize bytes and
// its compress/flate BestSpeed encoding is at most half its size. Below
// 4 KiB a file saves less than a disk block, and it pays the codec's
// per-entry setup (Writer.Reset plus a final Huffman block). A file that
// does not halve would make every cold read inflate all of its bytes while
// saving less than half of them. The rule reads only the file's own bytes,
// so the same files pack the same way in any push order, with one
// exception: addStream never packs, so a raw blob put before a layer
// holding the same bytes keeps that entry raw (the tape seed
// raw-blob-equals-packed-member). No bench corpus meets it: its raw blobs
// are configs and manifests, JSON that ends in '}', while every
// synthesized file of 16 bytes or more ends in its hex id, so stored
// bytes repeat exactly from run to run. The packed bytes are a view of
// pk's buffer, valid until its next use.
func pack(content []byte, pk *packer) []byte {
	if len(content) < packMinSize {
		return nil
	}
	pk.z.Reset()
	if pk.fw == nil {
		pk.fw, _ = flate.NewWriter(&pk.z, flate.BestSpeed)
	} else {
		pk.fw.Reset(&pk.z)
	}
	// Writes to a bytes.Buffer cannot fail.
	pk.fw.Write(content)
	pk.fw.Close()
	if pk.z.Len() > len(content)/2 {
		return nil
	}
	return pk.z.Bytes()
}

// packer is the deflater state a put packs its new files with. It rides on
// the put's pooled scratch: a BestSpeed flate.Writer is ≈1 MB to build.
type packer struct {
	fw *flate.Writer
	z  bytes.Buffer
}

// add stores content under d (the caller has already hashed it), packed
// when the rule says so, and counts one reference. Only the winning put of
// a new digest packs; a duplicate is a refcount bump.
func (p *Pool) add(d digest.Digest, content []byte, pk *packer) error {
	put := func(sh *poolShard) (int64, packedFile, error) {
		z := pack(content, pk)
		if z == nil {
			return 0, packedFile{}, sh.backing.PutVerified(d, content)
		}
		key, err := sh.packed.Put(z)
		return 0, packedFile{key: key, size: int64(len(content))}, err
	}
	if _, err := p.claim(d, put, nil); err != nil {
		return fmt.Errorf("dedupstore: pooling %s: %w", d.Short(), err)
	}
	return nil
}

// addStream is add for content that only exists as a stream (raw blobs on
// the put path), always stored raw. The stream is always consumed to EOF
// and digest-verified, even when the digest is already pooled; a stream
// that fails to verify takes no reference.
func (p *Pool) addStream(d digest.Digest, r io.Reader) (int64, error) {
	put := func(sh *poolShard) (int64, packedFile, error) {
		n, err := sh.backing.PutStream(d, r)
		return n, packedFile{}, err
	}
	return p.claim(d, put, func() (int64, error) { return blobstore.DrainVerify(d, r) })
}

// claim is the singleflight under add and addStream. Concurrent claims of
// one digest coalesce onto a single put into the shard's backings;
// everyone else takes a reference and runs held (when non-nil), releasing
// the reference again if held fails. A failed put lets the next waiter
// retry as the new winner. The put reports where a packed entry went,
// recorded under the lock that publishes the first reference.
func (p *Pool) claim(d digest.Digest, put func(*poolShard) (int64, packedFile, error), held func() (int64, error)) (int64, error) {
	sh := p.shardFor(d)
	for {
		sh.mu.Lock()
		if sh.refs[d] > 0 {
			sh.refs[d]++
			sh.mu.Unlock()
			if held == nil {
				return 0, nil
			}
			n, err := held()
			if err != nil {
				p.unref(d)
			}
			return n, err
		}
		f, won := sh.flights.Claim(d)
		sh.mu.Unlock()
		if !won {
			// Success: loop to take a reference. Failure: loop to retry as
			// the winner.
			f.Wait(context.Background())
			continue
		}
		n, pf, err := put(sh)
		sh.mu.Lock()
		if err == nil {
			sh.refs[d] = 1
			if pf.key != "" {
				sh.packs[d] = pf
			}
		}
		sh.flights.Land(d, f, err)
		sh.mu.Unlock()
		return n, err
	}
}

// unref releases one reference, deleting the entry's bytes, in whichever
// form they are held, when the count reaches zero. The delete happens
// under the shard lock so it cannot interleave with a concurrent add's
// backing write (add only writes while holding the digest's flight slot,
// which is never granted while references exist). Readers already
// streaming the digest are safe: both backing store kinds keep open
// readers valid after Delete.
func (p *Pool) unref(d digest.Digest) {
	sh := p.shardFor(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.refs[d]
	switch {
	case n > 1:
		sh.refs[d] = n - 1
	case n == 1:
		delete(sh.refs, d)
		if pf, ok := sh.packs[d]; ok {
			delete(sh.packs, d)
			sh.packed.Delete(pf.key)
		} else {
			sh.backing.Delete(d)
		}
	}
}

// inflater is the decompressor state open reads packed entries through:
// the flate reader, a buffer for backings whose readers are not byte
// readers, and the reader open hands out. It serves one open entry at a
// time; reassembly carries one on its pooled scratch.
type inflater struct {
	fr io.ReadCloser // a flate.Resetter once built
	br *bufio.Reader
	pr packedReader
}

// packedReader reads a packed entry's content.
type packedReader struct {
	fr io.Reader
	rc io.Closer // the packed backing's reader
}

func (r *packedReader) Read(p []byte) (int, error) { return r.fr.Read(p) }

func (r *packedReader) Close() error { return r.rc.Close() }

// open returns a reader over a pooled digest's content and the content
// size, whichever form the pool holds it in. A packed entry inflates
// through in, which must then not serve another entry until this reader
// is closed; a nil in builds a decompressor for this one reader.
func (p *Pool) open(d digest.Digest, in *inflater) (io.ReadCloser, int64, error) {
	sh := p.shardFor(d)
	sh.mu.Lock()
	pf, packed := sh.packs[d]
	sh.mu.Unlock()
	if !packed {
		return sh.backing.Get(d)
	}
	rc, _, err := sh.packed.Get(pf.key)
	if err != nil {
		return nil, 0, err
	}
	if in == nil {
		in = new(inflater)
	}
	src, ok := rc.(flate.Reader)
	if !ok {
		if in.br == nil {
			in.br = bufio.NewReader(rc)
		} else {
			in.br.Reset(rc)
		}
		src = in.br
	}
	if in.fr == nil {
		in.fr = flate.NewReader(src)
	} else if err := in.fr.(flate.Resetter).Reset(src, nil); err != nil {
		rc.Close()
		return nil, 0, err
	}
	in.pr = packedReader{fr: in.fr, rc: rc}
	return &in.pr, pf.size, nil
}

// Len returns the number of pooled digests.
func (p *Pool) Len() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.refs)
		sh.mu.Unlock()
	}
	return n
}

// TotalBytes returns the bytes the backings hold: raw contents plus
// packed forms, each digest counted once.
func (p *Pool) TotalBytes() int64 {
	var n int64
	for _, sh := range p.shards {
		n += sh.backing.TotalBytes() + sh.packed.TotalBytes()
	}
	return n
}

// contentBytes returns the content bytes the pool holds: what TotalBytes
// would be with nothing packed.
func (p *Pool) contentBytes() int64 {
	var n int64
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += sh.backing.TotalBytes()
		for _, pf := range sh.packs {
			n += pf.size
		}
		sh.mu.Unlock()
	}
	return n
}
