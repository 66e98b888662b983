package dedupstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/engine"
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
// An entry the packing rule (pack) takes is held in its packed form instead,
// in a second backing keyed by the digest of the packed bytes. The two
// namespaces never mix: a pushed file can be byte-equal to another file's
// packed form, and one key would then have two owners. Readers never see
// the difference — open returns the content either way.
//
// Safe for concurrent use.
type Pool struct {
	shards []*poolShard
	stores []blobstore.Store // every distinct backing once, for TotalBytes
}

// poolShard is one stripe: its two backing stores, its entries, and the
// flights of its in-progress backing writes.
type poolShard struct {
	backing blobstore.Store // raw contents, keyed by their own digest
	packed  blobstore.Store // packed contents, keyed by the packed bytes' digest

	mu      sync.Mutex
	entries map[digest.Digest]poolEntry
	flights blobstore.Flights
}

// poolEntry is one pooled digest, d, the copy of it the map keeps: a lookup
// by a spelled key builds no string, and writes back and deletes under d.
type poolEntry struct {
	d    digest.Digest
	refs int64
	size int64         // content bytes
	key  digest.Digest // the packed form's key in the packed backing; "" for a raw entry
}

// spelled is a pool digest written out in an array: m[digest.Digest(k[:])]
// builds no string, so a recipe's raw digest finds its entry unallocated.
type spelled [len(digestPrefix) + 2*rawDigestLen]byte

// spell returns d written out as a lookup key.
func spell(d digest.Digest) (k spelled) {
	copy(k[:], d)
	return k
}

// NewPool builds a pool striped over the given backing stores: shard i
// keeps raw contents in raw[i] and packed ones in packed[i], so the slices
// must be equally long; shards may share a store, but never as both. The
// pool owns the backings: it deletes unreferenced entries from them, so
// they must not be shared with other writers.
func NewPool(raw, packed []blobstore.Store) *Pool {
	p := &Pool{shards: make([]*poolShard, len(raw))}
	for i := range raw {
		p.shards[i] = &poolShard{
			backing: raw[i],
			packed:  packed[i],
			entries: make(map[digest.Digest]poolEntry),
			flights: make(blobstore.Flights),
		}
		for _, b := range [...]blobstore.Store{raw[i], packed[i]} {
			if !slices.Contains(p.stores, b) {
				p.stores = append(p.stores, b)
			}
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

// NewDiskPool returns a pool of shards (DefaultPoolShards when shards <= 0)
// that share two disk stores, raw contents in dir/raw, packed in dir/packed.
func NewDiskPool(dir string, shards int) (*Pool, error) {
	if shards <= 0 {
		shards = DefaultPoolShards
	}
	rawDisk, err := blobstore.NewDisk(filepath.Join(dir, "raw"))
	if err != nil {
		return nil, err
	}
	packedDisk, err := blobstore.NewDisk(filepath.Join(dir, "packed"))
	if err != nil {
		return nil, err
	}
	raw, packed := make([]blobstore.Store, shards), make([]blobstore.Store, shards)
	for i := range raw {
		raw[i], packed[i] = rawDisk, packedDisk
	}
	return NewPool(raw, packed), nil
}

// shardFor returns k's shard, placed by the digest's Key64.
func (p *Pool) shardFor(k *spelled) *poolShard {
	return p.shards[digest.Key64Hex(k[len(digestPrefix):])%uint64(len(p.shards))]
}

// packMinSize and pack are the packing rule; see pack.
const packMinSize = 256

// pack returns the packed form of a pool entry's content, or nil when it
// stays raw: an entry, member file or raw blob alike, packs when it is at
// least packMinSize bytes and its compress/flate BestSpeed encoding is at
// most ¾ of its size (EXPERIMENTS.md, "packed pool entries"). The rule
// reads only the entry's own bytes, so contents pack alike in any push
// order. The packed bytes are a view of pk's buffer, valid until its next
// use.
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
	if pk.z.Len() > len(content)*3/4 {
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
// when the rule says so, and counts one reference. Concurrent adds of one
// digest coalesce onto one put, the only one that packs; the rest take a
// reference, or retry as the winner if that put fails.
func (p *Pool) add(d digest.Digest, content []byte, pk *packer) error {
	k := spell(d)
	sh := p.shardFor(&k)
	for {
		sh.mu.Lock()
		if e, ok := sh.entries[d]; ok {
			e.refs++
			sh.entries[e.d] = e
			sh.mu.Unlock()
			return nil
		}
		f, won := sh.flights.Claim(d)
		sh.mu.Unlock()
		if !won {
			// Success: loop to take a reference. Failure: loop to retry as
			// the winner.
			f.Wait(context.Background())
			continue
		}
		e := poolEntry{d: d, refs: 1, size: int64(len(content))}
		var err error
		if z := pack(content, pk); z == nil {
			err = sh.backing.PutVerified(d, content)
		} else {
			e.key, err = sh.packed.Put(z)
		}
		sh.mu.Lock()
		if err == nil {
			sh.entries[d] = e
		}
		sh.flights.Land(d, f, err)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("dedupstore: pooling %s: %w", d.Short(), err)
		}
		return nil
	}
}

// unref releases one reference, deleting the entry's bytes, in whichever
// form they are held, when the count reaches zero. The delete happens
// under the shard lock so it cannot interleave with a concurrent add's
// backing write (add only writes while holding the digest's flight slot,
// which is never granted while references exist). Readers already
// streaming the digest are safe: both backing store kinds keep open
// readers valid after Delete.
func (p *Pool) unref(k *spelled) {
	sh := p.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[digest.Digest(k[:])]
	switch {
	case !ok:
	case e.refs > 1:
		e.refs--
		sh.entries[e.d] = e
	case e.key != "":
		delete(sh.entries, e.d)
		sh.packed.Delete(e.key)
	default:
		delete(sh.entries, e.d)
		sh.backing.Delete(e.d)
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

// inflaters lends inflaters to reads that bring none (a raw blob's Get).
var inflaters = engine.NewFreeList[inflater]()

// packedReader reads a packed entry's content. One over a borrowed
// inflater is its own value, so a second Close cannot reach another read.
type packedReader struct {
	fr     io.Reader
	rc     io.Closer // the packed backing's reader
	pooled *inflater // borrowed from inflaters, returned by Close
}

func (r *packedReader) Read(p []byte) (int, error) { return r.fr.Read(p) }

func (r *packedReader) Close() error {
	if r.pooled != nil {
		inflaters.Put(r.pooled)
		r.pooled = nil
	}
	return r.rc.Close()
}

// open returns a reader over a pooled digest's content and the content
// size, whichever form the pool holds it in. A packed entry inflates
// through in, which must then not serve another entry until this reader
// is closed; with a nil in, it borrows one from inflaters until Close.
func (p *Pool) open(k *spelled, in *inflater) (io.ReadCloser, int64, error) {
	sh := p.shardFor(k)
	sh.mu.Lock()
	e, ok := sh.entries[digest.Digest(k[:])]
	sh.mu.Unlock()
	switch {
	case !ok:
		return nil, 0, fmt.Errorf("%w: pool holds no %s", blobstore.ErrNotFound, digest.Digest(k[:]).Short())
	case e.key == "":
		return sh.backing.Get(e.d)
	}
	rc, _, err := sh.packed.Get(e.key)
	if err != nil {
		return nil, 0, err
	}
	pooled := in == nil
	if pooled {
		in = inflaters.Get()
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
	if pooled {
		return &packedReader{fr: in.fr, rc: rc, pooled: in}, e.size, nil
	}
	in.pr = packedReader{fr: in.fr, rc: rc}
	return &in.pr, e.size, nil
}

// TotalBytes returns the bytes the backings hold: raw contents plus
// packed forms, each digest counted once.
func (p *Pool) TotalBytes() int64 {
	var n int64
	for _, b := range p.stores {
		n += b.TotalBytes()
	}
	return n
}

// census returns the number of pooled digests and the content bytes they
// hold: what TotalBytes would be with nothing packed.
func (p *Pool) census() (n int, content int64) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		for _, e := range sh.entries {
			content += e.size
		}
		sh.mu.Unlock()
	}
	return n, content
}
