package dedupstore

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// failFirstPut fails its first PutVerified once release closes; later puts
// go through.
type failFirstPut struct {
	blobstore.Store
	started, release chan struct{}
	failed           bool
}

func (f *failFirstPut) PutVerified(d digest.Digest, content []byte) error {
	if !f.failed {
		f.failed = true
		close(f.started)
		<-f.release
		return errors.New("backing down")
	}
	return f.Store.PutVerified(d, content)
}

// TestPoolClaim: concurrent adds of one digest claim one put; a failed
// winner takes no reference and leaves the put to the next add, an add
// that finds the digest pooled takes a reference, and the bytes go with
// the last one.
func TestPoolClaim(t *testing.T) { testPoolClaim(t, false) }

// TestPoolClaimRetryFirst is TestPoolClaim with the retry's result
// delivered before the failed winner's: which add returns first is the
// scheduler's choice, and the outcome of each must not depend on it.
func TestPoolClaimRetryFirst(t *testing.T) { testPoolClaim(t, true) }

func testPoolClaim(t *testing.T, retryFirst bool) {
	content := []byte("pooled content")
	d := digest.FromBytes(content)
	backing := &failFirstPut{Store: blobstore.NewMemory(), started: make(chan struct{}), release: make(chan struct{})}
	p := NewPool([]blobstore.Store{backing}, []blobstore.Store{blobstore.NewMemory()})

	var pk1, pk2, pk3 packer
	// One result channel per add: the winner is the add that reached the
	// backing first, whichever of the two returns first.
	winner, retry := make(chan error, 1), make(chan error, 1)
	retried := make(chan struct{})
	go func() {
		err := p.add(d, content, &pk1)
		if retryFirst {
			<-retried
		}
		winner <- err
	}()
	<-backing.started
	go func() {
		retry <- p.add(d, content, &pk2)
		close(retried)
	}()
	close(backing.release)
	if werr, rerr := <-winner, <-retry; werr == nil || rerr != nil {
		t.Fatalf("failed winner then retry: errors %v, %v; want the winner's only", werr, rerr)
	}
	if n, _ := p.census(); n != 1 || !p.has(d) {
		t.Fatalf("pool holds %d digests after the retried put, want 1", n)
	}
	if err := p.add(d, content, &pk3); err != nil {
		t.Fatalf("second reference: %v", err)
	}
	// Two references: the bytes survive one release and go with the second.
	k := spell(d)
	p.unref(&k)
	if !p.has(d) {
		t.Fatal("digest released with a reference outstanding")
	}
	p.unref(&k)
	if p.has(d) || backing.TotalBytes() != 0 {
		t.Fatalf("digest still pooled (%d backing bytes) after its last release", backing.TotalBytes())
	}
}

// has reports whether d is pooled with a live reference.
func (p *Pool) has(d digest.Digest) bool {
	_, ok := p.entry(d)
	return ok
}

// entry returns d's pool entry.
func (p *Pool) entry(d digest.Digest) (poolEntry, bool) {
	k := spell(d)
	sh := p.shardFor(&k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[d]
	return e, ok
}

// TestPackRule: entries pack on their own bytes alone — at least
// packMinSize bytes and shrinking to ¾ or less at BestSpeed — and
// everything else stays raw.
func TestPackRule(t *testing.T) {
	var pk packer
	for _, c := range []struct {
		name    string
		content []byte
		packed  bool
	}{
		{"compressible, at the floor", tapeProse(1, packMinSize), true},
		{"compressible, one byte short of the floor", tapeProse(1, packMinSize-1), false},
		{"compressible 1 KiB", tapeProse(2, 1<<10), true},
		{"letters, packed to ⅗ of their size", tapeText(1, 16<<10), true},
		{"random bytes", noisyLayer(t, 1, 16<<10, true), false},
	} {
		z := pack(c.content, &pk)
		if (z != nil) != c.packed {
			t.Errorf("%s: packed=%v, want %v", c.name, z != nil, c.packed)
		}
		if z != nil && len(z) > len(c.content)*3/4 {
			t.Errorf("%s: packed to %d of %d bytes", c.name, len(z), len(c.content))
		}
	}
}

// TestRawBlobPacksInEitherOrder: a raw blob and a layer member with the
// same bytes are one pool entry, packed by one rule whichever is put
// first, so both orders hold the same bytes.
func TestRawBlobPacksInEitherOrder(t *testing.T) {
	x := tapeProse(3, 8<<10)
	layer := tapeLayer([][]byte{x, tapeText(4, 700)})
	var poolBytes [2]int64
	for i, order := range [][2][]byte{{x, layer}, {layer, x}} {
		pool := NewMemoryPool(1)
		s := NewWithConfig(pool, Config{})
		for _, blob := range order {
			putStream(t, s, blob)
		}
		if e, _ := pool.entry(digest.FromBytes(x)); e.key == "" {
			t.Errorf("order %d: the raw blob's entry is not packed", i)
		}
		if !bytes.Equal(readBlob(t, s, digest.FromBytes(x)), x) {
			t.Errorf("order %d: the raw blob reads back wrong bytes", i)
		}
		if err := checkStore(s); err != nil {
			t.Errorf("order %d: %v", i, err)
		}
		poolBytes[i] = s.Stats().PoolBytes
	}
	if poolBytes[0] != poolBytes[1] {
		t.Errorf("PoolBytes %d with the raw blob first, %d with the layer first", poolBytes[0], poolBytes[1])
	}
}

// TestPackedRawGetAllocation: a Get of a packed raw blob brings no
// inflater, and borrows one from the free list instead of building a
// decompressor per read.
func TestPackedRawGetAllocation(t *testing.T) {
	x := tapeProse(5, 16<<10)
	s := NewWithConfig(NewMemoryPool(1), Config{})
	d := putStream(t, s, x)
	if e, _ := s.pool.entry(d); e.key == "" {
		t.Fatal("the test's raw blob does not pack")
	}
	buf := make([]byte, 32<<10)
	get := bytesPerCall(20, func() {
		rc, _, err := s.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := io.CopyBuffer(plainSink{}, rc, buf); err != nil || n != int64(len(x)) {
			t.Fatalf("read %d of %d bytes: %v", n, len(x), err)
		}
		rc.Close()
	})
	var src bytes.Reader
	decompressor := bytesPerCall(20, func() { flate.NewReader(&src) })
	t.Logf("Get of a packed raw blob: %d B; one flate decompressor: %d B", get, decompressor)
	if get > decompressor/8 {
		t.Errorf("a Get of a packed raw blob allocates %d B, a flate decompressor is %d B: want under an eighth of it", get, decompressor)
	}
}

// TestPackedFormCollidesWithAFile: layer B holds a file X whose bytes are
// exactly what the pool stored for layer A's file Y. Were the packed forms
// kept beside raw contents, X and Y's packed form would be one key with two
// owners, and deleting either layer would take the other's bytes. It runs
// over both pool kinds, since a disk backing's reader is no byte reader and
// the inflater buffers it.
func TestPackedFormCollidesWithAFile(t *testing.T) {
	y := tapeProse(7, 8<<10)
	var pk packer
	x := bytes.Clone(pack(y, &pk))
	if x == nil {
		t.Fatal("the test's file does not pack")
	}
	layerA, layerB := tapeLayer([][]byte{y}), tapeLayer([][]byte{x})
	pools := map[string]func() (*Pool, error){
		"memory": func() (*Pool, error) { return NewMemoryPool(1), nil },
		"disk":   func() (*Pool, error) { return NewDiskPool(t.TempDir(), 1) },
	}
	for kind, newPool := range pools {
		for _, order := range [][2][]byte{{layerA, layerB}, {layerB, layerA}} {
			pool, err := newPool()
			if err != nil {
				t.Fatal(err)
			}
			s := NewWithConfig(pool, Config{})
			for _, layer := range order {
				if d := putStream(t, s, layer); !bytes.Equal(readBlob(t, s, d), layer) {
					t.Fatalf("%s pool: layer %s does not reassemble", kind, d.Short())
				}
			}
			if e, _ := pool.entry(digest.FromBytes(y)); e.key != digest.FromBytes(x) {
				t.Fatalf("%s pool: Y's packed key is %s, want the digest of X's bytes", kind, e.key.Short())
			}
			// Delete the layer put first, then the other.
			if err := s.Delete(digest.FromBytes(order[0])); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readBlob(t, s, digest.FromBytes(order[1])), order[1]) {
				t.Fatalf("%s pool: deleting one layer broke the other", kind)
			}
			if err := checkStore(s); err != nil {
				t.Fatalf("%s pool: %v", kind, err)
			}
			if err := s.Delete(digest.FromBytes(order[1])); err != nil {
				t.Fatal(err)
			}
			if err := checkStore(s); err != nil {
				t.Fatalf("%s pool: %v", kind, err)
			}
			if n, _ := pool.census(); n != 0 || pool.TotalBytes() != 0 {
				t.Fatalf("%s pool: %d digests, %d bytes pooled after deleting both layers", kind, n, pool.TotalBytes())
			}
		}
	}
}

// TestDiskPoolLayout: a disk pool's shards share one raw and one packed
// store, so a pool of hundreds of entries makes at most 2×256 fan-out
// directories under its two roots, and a pool opened again over the same
// directory, with its blobs put again as hubregistry's re-ingest does,
// finds the bytes in place and serves them byte-exact.
func TestDiskPoolLayout(t *testing.T) {
	dir := t.TempDir()
	blobs := make([][]byte, 640)
	for i := range blobs {
		blobs[i] = tapeProse(2000+i, 1<<10) // packs
		if i%2 == 1 {
			blobs[i] = tapeText(2000+i, packMinSize-56) // under the floor: raw
		}
	}
	var poolBytes int64
	for run := range 2 {
		pool, err := NewDiskPool(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 && pool.TotalBytes() != poolBytes {
			t.Fatalf("reopened pool holds %d bytes, the first held %d", pool.TotalBytes(), poolBytes)
		}
		s := NewWithConfig(pool, Config{})
		for _, b := range blobs {
			if _, err := s.Put(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range blobs {
			if !bytes.Equal(readBlob(t, s, digest.FromBytes(b)), b) {
				t.Fatalf("run %d: a blob reads back wrong bytes", run)
			}
		}
		if err := checkStore(s); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if n, _ := pool.census(); n != len(blobs) {
			t.Fatalf("run %d: pool holds %d entries, want %d", run, n, len(blobs))
		}
		if run == 1 && pool.TotalBytes() != poolBytes {
			t.Fatalf("re-ingested pool holds %d bytes, the first held %d", pool.TotalBytes(), poolBytes)
		}
		poolBytes = pool.TotalBytes()
	}
	dirs := 0
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() && path != dir {
			dirs++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirs > 2+2*256 {
		t.Errorf("%d entries made %d directories, want at most 2 + 2×256", len(blobs), dirs)
	}
}
