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
	p := NewPool(backing)

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
