package dedupstore

import (
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
// Safe for concurrent use.
type Pool struct {
	shards []*poolShard
}

// poolShard is one stripe: its own backing store, refcounts, and the
// flights of its in-progress backing writes.
type poolShard struct {
	backing blobstore.Store

	mu      sync.Mutex
	refs    map[digest.Digest]int64
	flights blobstore.Flights
}

// NewPool builds a pool striped over the given backing stores (one shard
// per store). The pool owns the backings: it deletes unreferenced digests
// from them, so they must not be shared with other writers.
func NewPool(backings ...blobstore.Store) *Pool {
	p := &Pool{shards: make([]*poolShard, len(backings))}
	for i, b := range backings {
		p.shards[i] = &poolShard{
			backing: b,
			refs:    make(map[digest.Digest]int64),
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
	backings := make([]blobstore.Store, shards)
	for i := range backings {
		backings[i] = blobstore.NewMemory()
	}
	return NewPool(backings...)
}

// NewDiskPool returns a pool over disk shards rooted at dir/sNN
// (DefaultPoolShards when shards <= 0).
func NewDiskPool(dir string, shards int) (*Pool, error) {
	if shards <= 0 {
		shards = DefaultPoolShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dedupstore: creating pool root: %w", err)
	}
	backings := make([]blobstore.Store, shards)
	for i := range backings {
		d, err := blobstore.NewDisk(filepath.Join(dir, fmt.Sprintf("s%02d", i)))
		if err != nil {
			return nil, err
		}
		backings[i] = d
	}
	return NewPool(backings...), nil
}

func (p *Pool) shardFor(d digest.Digest) *poolShard {
	return p.shards[d.Key64()%uint64(len(p.shards))]
}

// add stores content under d (the caller has already hashed it) and counts
// one reference.
func (p *Pool) add(d digest.Digest, content []byte) error {
	put := func(b blobstore.Store) (int64, error) { return 0, b.PutVerified(d, content) }
	if _, err := p.claim(d, put, nil); err != nil {
		return fmt.Errorf("dedupstore: pooling %s: %w", d.Short(), err)
	}
	return nil
}

// addStream is add for content that only exists as a stream (raw blobs on
// the put path). The stream is always consumed to EOF and digest-verified,
// even when the digest is already pooled; a stream that fails to verify
// takes no reference.
func (p *Pool) addStream(d digest.Digest, r io.Reader) (int64, error) {
	put := func(b blobstore.Store) (int64, error) { return b.PutStream(d, r) }
	return p.claim(d, put, func() (int64, error) { return blobstore.DrainVerify(d, r) })
}

// claim is the singleflight under add and addStream. Concurrent claims of
// one digest coalesce onto a single put into the backing store; everyone
// else takes a reference and runs held (when non-nil), releasing the
// reference again if held fails. A failed put lets the next waiter retry
// as the new winner.
func (p *Pool) claim(d digest.Digest, put func(blobstore.Store) (int64, error), held func() (int64, error)) (int64, error) {
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
		n, err := put(sh.backing)
		sh.mu.Lock()
		if err == nil {
			sh.refs[d] = 1
		}
		sh.flights.Land(d, f, err)
		sh.mu.Unlock()
		return n, err
	}
}

// unref releases one reference, deleting the backing bytes when the count
// reaches zero. The delete happens under the shard lock so it cannot
// interleave with a concurrent add's backing write (add only writes while
// holding the digest's flight slot, which is never granted while
// references exist). Readers already streaming the digest are safe: both
// backing store kinds keep open readers valid after Delete.
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
		sh.backing.Delete(d)
	}
}

// open returns a reader over a pooled digest's bytes.
func (p *Pool) open(d digest.Digest) (io.ReadCloser, int64, error) {
	return p.shardFor(d).backing.Get(d)
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

// TotalBytes returns the pooled bytes (each digest counted once).
func (p *Pool) TotalBytes() int64 {
	var n int64
	for _, sh := range p.shards {
		n += sh.backing.TotalBytes()
	}
	return n
}
