package dedupstore

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// failFirstPut fails its first PutStream once release closes; later puts
// go through.
type failFirstPut struct {
	blobstore.Store
	started, release chan struct{}
	failed           bool
}

func (f *failFirstPut) PutStream(d digest.Digest, r io.Reader) (int64, error) {
	if !f.failed {
		f.failed = true
		close(f.started)
		<-f.release
		return 0, errors.New("backing down")
	}
	return f.Store.PutStream(d, r)
}

// TestPoolClaim: a failed winner takes no reference and leaves the put to
// the next claim; a claim that finds the digest pooled still verifies its
// stream to EOF, and takes no reference when that fails.
func TestPoolClaim(t *testing.T) {
	content := []byte("pooled content")
	d := digest.FromBytes(content)
	backing := &failFirstPut{Store: blobstore.NewMemory(), started: make(chan struct{}), release: make(chan struct{})}
	p := NewPool([]blobstore.Store{backing}, []blobstore.Store{blobstore.NewMemory()})

	errs := make(chan error, 2)
	add := func() { _, err := p.addStream(d, bytes.NewReader(content)); errs <- err }
	go add()
	<-backing.started
	go add()
	close(backing.release)
	if first, second := <-errs, <-errs; first == nil || second != nil {
		t.Fatalf("failed winner then retry: errors %v, %v; want the first only", first, second)
	}
	if p.Len() != 1 || !p.has(d) {
		t.Fatalf("pool holds %d digests after the retried put, want 1", p.Len())
	}

	bad := bytes.NewReader([]byte("imposter bytes"))
	if _, err := p.addStream(d, bad); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("imposter stream for a pooled digest = %v, want ErrDigestMismatch", err)
	}
	if bad.Len() != 0 {
		t.Fatalf("imposter stream left %d bytes unread", bad.Len())
	}
	if n, err := p.addStream(d, bytes.NewReader(content)); err != nil || n != int64(len(content)) {
		t.Fatalf("second reference: n=%d err=%v", n, err)
	}
	// Two references: the bytes survive one release and go with the second.
	p.unref(d)
	if !p.has(d) {
		t.Fatal("digest released with a reference outstanding")
	}
	p.unref(d)
	if p.has(d) || backing.TotalBytes() != 0 {
		t.Fatalf("digest still pooled (%d backing bytes) after its last release", backing.TotalBytes())
	}
}

// has reports whether d is pooled with a live reference.
func (p *Pool) has(d digest.Digest) bool {
	sh := p.shardFor(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.refs[d] > 0
}

// TestPackRule: files pack on their own bytes alone — at least 4 KiB and
// halving at BestSpeed — and everything else stays raw.
func TestPackRule(t *testing.T) {
	var pk packer
	for _, c := range []struct {
		name    string
		content []byte
		packed  bool
	}{
		{"compressible 4 KiB", tapeProse(1, packMinSize), true},
		{"compressible, one byte short of 4 KiB", tapeProse(1, packMinSize-1), false},
		{"letters that do not halve", tapeText(1, 16<<10), false},
		{"random bytes", noisyLayer(t, 1, 16<<10, true), false},
	} {
		z := pack(c.content, &pk)
		if (z != nil) != c.packed {
			t.Errorf("%s: packed=%v, want %v", c.name, z != nil, c.packed)
		}
		if z != nil && len(z) > len(c.content)/2 {
			t.Errorf("%s: packed to %d of %d bytes", c.name, len(z), len(c.content))
		}
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
			if key := pool.shards[0].packs[digest.FromBytes(y)].key; key != digest.FromBytes(x) {
				t.Fatalf("%s pool: Y's packed key is %s, want the digest of X's bytes", kind, key.Short())
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
			if pool.Len() != 0 || pool.TotalBytes() != 0 {
				t.Fatalf("%s pool: %d digests, %d bytes pooled after deleting both layers", kind, pool.Len(), pool.TotalBytes())
			}
		}
	}
}
